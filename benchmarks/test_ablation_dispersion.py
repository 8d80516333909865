"""Ablation: coverage dispersion (the paper's Gamma-coverage argument).

Section 4.1 argues that unequal ECC is doomed partly because *coverage is
never fixed across clusters*: it follows a Gamma distribution, so the
realized skew differs per cluster. This ablation measures the cost of
dispersion directly: at the same mean coverage, a dispersed channel
(small Gamma shape) produces strictly more decode failures than a fixed
one, and the gap narrows as the mean grows.
"""

import numpy as np

from benchmarks.conftest import print_series
from repro.channel import ErrorModel, ReadPool
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig

MATRIX = MatrixConfig(m=8, n_columns=160, nsym=30, payload_rows=24)
ERROR_RATE = 0.09
COVERAGES = (5, 7, 9, 12)
TRIALS = 4


def _exact_rate(coverage, dispersion_shape, rng):
    generator = np.random.default_rng(rng)
    pipeline = DnaStoragePipeline(PipelineConfig(matrix=MATRIX, layout="gini"))
    exact = 0
    for _ in range(TRIALS):
        bits = generator.integers(0, 2, MATRIX.data_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        pool = ReadPool(unit.strands, ErrorModel.uniform(ERROR_RATE),
                        max_coverage=3 * coverage, rng=generator,
                        dispersion_shape=dispersion_shape)
        decoded, report = pipeline.decode(pool.batch_at(coverage), bits.size)
        exact += int(report.clean and np.array_equal(decoded, bits))
    return exact / TRIALS


def run_experiment(rng=2022):
    fixed = [_exact_rate(c, None, rng) for c in COVERAGES]
    dispersed = [_exact_rate(c, 2.0, rng) for c in COVERAGES]
    return fixed, dispersed


def test_ablation_dispersion(benchmark):
    fixed, dispersed = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_series(
        "Ablation: exact-decode rate, fixed vs Gamma-dispersed coverage (p=9%)",
        list(COVERAGES),
        {"fixed": fixed, "dispersed(shape=2)": dispersed},
    )
    fixed = np.array(fixed)
    dispersed = np.array(dispersed)
    # Dispersion never helps ...
    assert (dispersed <= fixed + 1e-9).all()
    # ... and hurts somewhere on the sweep.
    assert (dispersed < fixed).any()
    # Enough average coverage eventually buys exactness for both.
    assert fixed[-1] == 1.0
