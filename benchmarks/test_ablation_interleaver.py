"""Ablation: why Gini stripes diagonally instead of permuting randomly.

The paper's Figure 8a insists that a wrapping diagonal "continue[s] from
the next column" so that *every symbol in every molecule belongs to a
different codeword* — preserving the baseline's erasure guarantee (one
lost molecule costs each codeword exactly one symbol). A random
interleaver flattens positional error just as well, but lets one codeword
own several symbols of the same molecule, so molecule losses can blow
through the erasure budget.

This ablation measures both halves of the trade:

* error flattening (Gini coefficient of per-codeword error counts) —
  random ≈ diagonal, both far better than the baseline;
* survival of exactly-nsym molecule losses — diagonal always survives,
  random usually does not.
"""

import numpy as np

from benchmarks.conftest import print_series
from repro.analysis import errors_per_codeword, gini_coefficient
from repro.channel import ErrorModel, ReadPool
from repro.channel import FixedCoverage, SequencingSimulator
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig
from repro.core.layout import build_layout

MATRIX = MatrixConfig(m=8, n_columns=120, nsym=20, payload_rows=16)
ERROR_RATE = 0.09
COVERAGE = 5
TRIALS = 3
LOSS_TRIALS = 10


def _flatten_metric(layout_name, rng):
    generator = np.random.default_rng(rng)
    pipeline = DnaStoragePipeline(PipelineConfig(matrix=MATRIX, layout=layout_name))
    layout = build_layout(layout_name, MATRIX)
    counts = np.zeros(MATRIX.payload_rows)
    for _ in range(TRIALS):
        bits = generator.integers(0, 2, MATRIX.data_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        pool = ReadPool(unit.strands, ErrorModel.uniform(ERROR_RATE),
                        max_coverage=COVERAGE, rng=generator)
        received = pipeline.receive(pool.batch_at(COVERAGE))
        counts += errors_per_codeword(layout, unit.matrix, received.matrix,
                                      received.erased_columns)
    return gini_coefficient(counts)


def _erasure_survival(layout_name, rng):
    generator = np.random.default_rng(rng)
    pipeline = DnaStoragePipeline(PipelineConfig(matrix=MATRIX, layout=layout_name))
    bits = generator.integers(0, 2, MATRIX.data_bits).astype(np.uint8)
    unit = pipeline.encode(bits)
    simulator = SequencingSimulator(ErrorModel.uniform(0.0), FixedCoverage(1))
    survived = 0
    for trial in range(LOSS_TRIALS):
        batch = simulator.sequence_batch(unit.strands, generator)
        lost = generator.choice(MATRIX.n_columns, MATRIX.nsym, replace=False)
        kept = batch.coverage_counts()
        kept[lost] = 0  # the lost molecules keep no reads
        decoded, report = pipeline.decode(batch.select_prefix(kept),
                                          bits.size)
        survived += int(report.clean and np.array_equal(decoded, bits))
    return survived / LOSS_TRIALS


def run_experiment(rng=2022):
    layouts = ("baseline", "gini", "random")
    return (
        {name: _flatten_metric(name, rng) for name in layouts},
        {name: _erasure_survival(name, rng) for name in layouts},
    )


def test_ablation_interleaver(benchmark):
    flatness, survival = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_series(
        "Ablation: interleaver choice (error flatness + erasure survival)",
        ["gini_coefficient", "nsym_loss_survival"],
        {name: [flatness[name], survival[name]]
         for name in ("baseline", "gini", "random")},
    )
    # Both interleavers flatten the per-codeword error distribution.
    assert flatness["gini"] < 0.5 * flatness["baseline"]
    assert flatness["random"] < 0.5 * flatness["baseline"]
    # Only the diagonal stripe keeps the full erasure guarantee.
    assert survival["baseline"] == 1.0
    assert survival["gini"] == 1.0
    assert survival["random"] < 0.5
