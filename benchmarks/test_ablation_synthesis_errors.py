"""Ablation: synthesis errors cannot be bought off with coverage.

Section 8 of the paper separates error sources: sequencing errors are
independent per read (consensus cancels them with enough coverage), while
synthesis errors live in the molecule itself — every read repeats them,
so only the cross-molecule ECC can fix them. Enzymatic synthesis makes
this regime practically relevant.

Measured here: exact-decode rate versus coverage for (a) a pure
sequencing channel and (b) the same sequencing channel plus a small
synthesis error rate. The pure channel reaches 100% with coverage; the
two-stage channel plateaus below until the ECC margin, not the coverage,
decides — and Gini's flattened codewords cross that margin earlier than
the baseline's worst-case middle rows.
"""

import numpy as np

from benchmarks.conftest import print_series
from repro.channel import ErrorModel, FixedCoverage, TwoStageSequencer
from repro.channel.sequencer import SequencingSimulator
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig

MATRIX = MatrixConfig(m=8, n_columns=160, nsym=30, payload_rows=24)
SEQUENCING_RATE = 0.08
SYNTHESIS_RATE = 0.002
COVERAGES = (6, 10, 14, 18)
TRIALS = 4


def _exact_rate(layout, synthesis_rate, coverage, rng):
    generator = np.random.default_rng(rng)
    pipeline = DnaStoragePipeline(PipelineConfig(matrix=MATRIX, layout=layout))
    if synthesis_rate > 0:
        channel = TwoStageSequencer(
            ErrorModel.uniform(synthesis_rate),
            ErrorModel.uniform(SEQUENCING_RATE),
            FixedCoverage(coverage),
        )
    else:
        channel = SequencingSimulator(
            ErrorModel.uniform(SEQUENCING_RATE), FixedCoverage(coverage)
        )
    exact = 0
    for _ in range(TRIALS):
        bits = generator.integers(0, 2, MATRIX.data_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        batch = channel.sequence_batch(unit.strands, generator)
        decoded, report = pipeline.decode(batch, bits.size)
        exact += int(report.clean and np.array_equal(decoded, bits))
    return exact / TRIALS


def run_experiment(rng=2022):
    series = {
        "gini, seq-only": [
            _exact_rate("gini", 0.0, c, rng) for c in COVERAGES
        ],
        "gini, +synthesis": [
            _exact_rate("gini", SYNTHESIS_RATE, c, rng) for c in COVERAGES
        ],
        "baseline, +synthesis": [
            _exact_rate("baseline", SYNTHESIS_RATE, c, rng) for c in COVERAGES
        ],
    }
    return series


def test_ablation_synthesis_errors(benchmark):
    series = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_series(
        f"Ablation: exact-decode rate vs coverage "
        f"(seq={SEQUENCING_RATE:.0%}, synth={SYNTHESIS_RATE:.1%})",
        list(COVERAGES),
        series,
    )
    sequencing_only = np.array(series["gini, seq-only"])
    with_synthesis = np.array(series["gini, +synthesis"])
    baseline_synth = np.array(series["baseline, +synthesis"])
    # Pure sequencing noise is solved by coverage alone.
    assert sequencing_only[-1] == 1.0
    # Synthesis errors persist at every coverage: the two-stage channel is
    # never better, and the ECC (not the coverage) carries the load.
    assert (with_synthesis <= sequencing_only + 1e-9).all()
    # Gini's even error spread crosses the synthesis floor where the
    # baseline's peaked middle rows still fail: with enough coverage the
    # only remaining errors are synthesis-borne, and Gini distributes them
    # across codewords while the baseline stacks sequencing residue *and*
    # synthesis errors onto the same middle rows.
    assert with_synthesis[-1] == 1.0
    assert with_synthesis[-1] > baseline_synth[-1]
