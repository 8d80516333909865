"""Figure 11: per-codeword error distribution, baseline versus Gini.

Paper setup: error rate 9%, coverage 20, 82 codewords. Expected result:
the baseline's codewords in the middle rows collect several times more
errors than the edge rows (a pronounced peak), Gini's interleaving gives
every codeword a near-identical count, and the areas under both curves
(total errors) are the same.

Scaled setup: 24 codewords over 160 molecules; coverage is reduced along
with the strand length so that a comparable error mass survives consensus.
"""

import numpy as np

from benchmarks.conftest import print_series
from repro.analysis import errors_per_codeword, gini_coefficient
from repro.channel import ErrorModel, ReadPool
from repro.core import (
    BaselineLayout,
    DnaStoragePipeline,
    GiniLayout,
    MatrixConfig,
    PipelineConfig,
)

MATRIX = MatrixConfig(m=8, n_columns=160, nsym=30, payload_rows=24)
ERROR_RATE = 0.09
COVERAGE = 6
TRIALS = 3


def run_experiment(rng=2022):
    generator = np.random.default_rng(rng)
    bits = generator.integers(0, 2, MATRIX.data_bits).astype(np.uint8)
    counts = {}
    for layout_name, layout_cls in (("baseline", BaselineLayout),
                                    ("gini", GiniLayout)):
        pipeline = DnaStoragePipeline(
            PipelineConfig(matrix=MATRIX, layout=layout_name)
        )
        total = np.zeros(MATRIX.payload_rows)
        for _ in range(TRIALS):
            unit = pipeline.encode(bits)
            pool = ReadPool(unit.strands, ErrorModel.uniform(ERROR_RATE),
                            max_coverage=COVERAGE, rng=generator)
            received = pipeline.receive(pool.batch_at(COVERAGE))
            total += errors_per_codeword(
                layout_cls(MATRIX), unit.matrix, received.matrix,
                received.erased_columns,
            )
        counts[layout_name] = total / TRIALS
    return counts


def test_fig11_errors_per_codeword(benchmark):
    counts = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    baseline = counts["baseline"]
    gini = counts["gini"]
    print_series(
        "Fig 11: errors per codeword (p=9%)",
        list(range(MATRIX.payload_rows)),
        {"baseline": baseline.tolist(), "gini": gini.tolist()},
    )
    print(f"gini coefficient: baseline={gini_coefficient(baseline):.3f} "
          f"gini={gini_coefficient(gini):.3f}")

    rows = MATRIX.payload_rows
    middle = baseline[rows // 2 - 3: rows // 2 + 3].mean()
    edges = np.concatenate([baseline[:3], baseline[-3:]]).mean()
    # Baseline: prominent peak in the middle rows.
    assert middle > 2 * edges
    # Gini: flat — every codeword sees a similar number of errors.
    assert gini.max() < 1.6 * max(gini.mean(), 1.0)
    assert gini_coefficient(gini) < 0.5 * gini_coefficient(baseline)
    # Equal areas: Gini redistributes errors, it does not remove them.
    assert 0.75 < gini.sum() / baseline.sum() < 1.25
