"""Ablation: Gini with reliability classes (the paper's Figure 8b).

Excluding rows from the interleaving keeps them as plain row codewords.
Excluding the *end* rows creates a premium reliability class: those rows
sit at the reliable molecule ends, collect few errors, and keep decoding
at coverages where the interleaved middle group already fails. The paper
sketches this as a way to combine Gini with per-class guarantees.
"""

import numpy as np

from benchmarks.conftest import print_series
from repro.channel import ErrorModel, ReadPool
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig

MATRIX = MatrixConfig(m=8, n_columns=160, nsym=30, payload_rows=24)
ERROR_RATE = 0.11
COVERAGES = (13, 8, 6, 5, 4)
TRIALS = 4
EXCLUDED = (0, MATRIX.payload_rows - 1)  # first and last rows: premium class


def run_experiment(rng=2022):
    generator = np.random.default_rng(rng)
    pipeline = DnaStoragePipeline(PipelineConfig(
        matrix=MATRIX, layout="gini", gini_excluded_rows=EXCLUDED,
    ))
    premium_fail = []
    standard_fail = []
    for coverage in COVERAGES:
        premium = standard = 0
        for _ in range(TRIALS):
            bits = generator.integers(0, 2, MATRIX.data_bits).astype(np.uint8)
            unit = pipeline.encode(bits)
            pool = ReadPool(unit.strands, ErrorModel.uniform(ERROR_RATE),
                            max_coverage=coverage, rng=generator)
            _, report = pipeline.decode(pool.batch_at(coverage), bits.size)
            failed = set(report.failed_codewords)
            premium += sum(1 for k in EXCLUDED if k in failed)
            standard += sum(1 for k in failed if k not in EXCLUDED)
        premium_fail.append(premium / (TRIALS * len(EXCLUDED)))
        standard_fail.append(
            standard / (TRIALS * (MATRIX.payload_rows - len(EXCLUDED)))
        )
    return premium_fail, standard_fail


def test_ablation_gini_classes(benchmark):
    premium_fail, standard_fail = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    print_series(
        "Ablation: Gini reliability classes (excluded end rows vs interleaved)",
        list(COVERAGES),
        {"premium_fail_rate": premium_fail,
         "standard_fail_rate": standard_fail},
    )
    premium = np.array(premium_fail)
    standard = np.array(standard_fail)
    # Once the standard class starts failing, the premium class fails
    # strictly less across the sweep.
    stressed = standard > 0
    assert stressed.any()
    assert premium[stressed].mean() < standard[stressed].mean()
    # At the highest coverage, everything decodes.
    assert premium[0] == 0 and standard[0] == 0
