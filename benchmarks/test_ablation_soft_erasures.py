"""Ablation: confidence-assisted decoding (soft erasures).

An extension beyond the paper enabled by the posterior reconstructor:
per-position posterior confidence flags the consensus's own unreliable
symbols as *erasures* for the RS layer. Erasures cost half of what errors
cost (E erasures vs E/2 errors per codeword), so correctly flagged cells
stretch the correction budget; the advisory-with-fallback design keeps
wrong flags harmless.

Measured: codeword failures per unit, with and without soft erasures, at
a stressed operating point.
"""

import numpy as np

from benchmarks.conftest import print_series
from repro.channel import ErrorModel, ReadPool
from repro.consensus import PosteriorReconstructor
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig

MATRIX = MatrixConfig(m=8, n_columns=120, nsym=22, payload_rows=16)
ERROR_RATE = 0.10
COVERAGES = (5, 6, 7)
TRIALS = 3
THRESHOLD = 0.75


def run_experiment(rng=2022):
    model = ErrorModel.uniform(ERROR_RATE)
    pipeline = DnaStoragePipeline(
        PipelineConfig(matrix=MATRIX, layout="gini"),
        reconstructor=PosteriorReconstructor(channel=model),
    )
    generator = np.random.default_rng(rng)
    plain_failures = []
    assisted_failures = []
    for coverage in COVERAGES:
        plain = assisted = 0
        for _ in range(TRIALS):
            bits = generator.integers(0, 2, MATRIX.data_bits).astype(np.uint8)
            unit = pipeline.encode(bits)
            pool = ReadPool(unit.strands, model, max_coverage=coverage,
                            rng=generator)
            batch = pool.batch_at(coverage)
            received_plain = pipeline.receive(batch)
            _, report = pipeline.correct(received_plain, bits.size)
            plain += len(report.failed_codewords)
            received_soft = pipeline.receive(
                batch, confidence_threshold=THRESHOLD
            )
            _, report = pipeline.correct(received_soft, bits.size)
            assisted += len(report.failed_codewords)
        plain_failures.append(plain / TRIALS)
        assisted_failures.append(assisted / TRIALS)
    return plain_failures, assisted_failures


def test_ablation_soft_erasures(benchmark):
    plain, assisted = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_series(
        f"Ablation: failed codewords/unit, plain vs soft erasures "
        f"(p={ERROR_RATE:.0%}, threshold={THRESHOLD})",
        list(COVERAGES),
        {"plain": plain, "soft_erasures": assisted},
    )
    plain = np.array(plain)
    assisted = np.array(assisted)
    # Advisory erasures with fallback are never worse ...
    assert (assisted <= plain + 1e-9).all()
    # ... and help somewhere in the stressed region.
    assert (assisted < plain).any()
