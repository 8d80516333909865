"""Ablation: the unequal-error-correction strawman (paper Section 4.1).

The paper argues that provisioning per-row redundancy for an *assumed*
skew curve cannot stand the test of time: the skew magnitude changes with
the sequencing technology, the coverage, and even per-cluster coverage
dispersion, while Gini needs no such assumption. This ablation makes the
argument quantitative:

* an uneven-ECC unit is provisioned for the skew measured at one
  operating point (coverage 8);
* decoding is then attempted at the provisioned point and at a *different*
  operating point (lower coverage, same average redundancy);
* Gini at the same total redundancy is decoded at both points.

Expected: uneven ECC does fine at its design point but degrades when the
realized skew no longer matches, while Gini is insensitive by design.
"""

import numpy as np

from benchmarks.conftest import print_series
from repro.analysis import positional_error_profile
from repro.channel import ErrorModel, ReadPool
from repro.consensus import TwoWayReconstructor
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig
from repro.ecc import UnevenEccScheme, redundancy_profile_for_skew

MATRIX = MatrixConfig(m=8, n_columns=160, nsym=30, payload_rows=24)
ERROR_RATE = 0.09
DESIGN_COVERAGE = 10
OFF_DESIGN_COVERAGE = 6
TRIALS = 4


def _row_skew_curve(coverage, rng):
    """Expected per-row error intensity measured at one operating point.

    400 trials keep the measured curve's shape stable: at the design
    coverage errors are rare enough that a few dozen trials can realize
    an all-zero (flat) curve, which would make the provisioning uniform.
    The batched read plane makes this many trials essentially free.
    """
    profile = positional_error_profile(
        TwoWayReconstructor(), MATRIX.strand_length,
        ErrorModel.uniform(ERROR_RATE), coverage, trials=400, rng=rng,
    )
    # Skip the index bases; average base-error over each row's bases.
    per_base = profile[MATRIX.index_bases:]
    return per_base.reshape(MATRIX.payload_rows, MATRIX.m // 2).mean(axis=1)


def _uneven_failures(scheme, pipeline, coverage, rng):
    """Fraction of rows the uneven scheme fails to decode."""
    generator = np.random.default_rng(rng)
    failures = 0
    total = 0
    for _ in range(TRIALS):
        data = generator.integers(0, 256, scheme.total_data_symbols)
        matrix = scheme.encode(data)
        # Ship the uneven matrix through the real strand channel by
        # reusing the pipeline's strand format (index + column symbols).
        strands = pipeline._render_strands(matrix[None])[0]
        pool = ReadPool(strands, ErrorModel.uniform(ERROR_RATE),
                        max_coverage=coverage, rng=generator)
        received = pipeline.receive(pool.clusters_at(coverage))
        _, row_ok = scheme.decode(
            received.matrix, erasures=received.erased_columns
        )
        failures += sum(1 for ok in row_ok if not ok)
        total += len(row_ok)
    return failures / total


def _gini_exact_rate(coverage, rng):
    generator = np.random.default_rng(rng)
    pipeline = DnaStoragePipeline(PipelineConfig(matrix=MATRIX, layout="gini"))
    exact = 0
    for _ in range(TRIALS):
        bits = generator.integers(0, 2, MATRIX.data_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        pool = ReadPool(unit.strands, ErrorModel.uniform(ERROR_RATE),
                        max_coverage=coverage, rng=generator)
        decoded, report = pipeline.decode(pool.clusters_at(coverage), bits.size)
        exact += int(report.clean and np.array_equal(decoded, bits))
    return exact / TRIALS


def run_experiment(rng=2022):
    curve = _row_skew_curve(DESIGN_COVERAGE, rng)
    parity = redundancy_profile_for_skew(
        curve, total_parity=MATRIX.nsym * MATRIX.payload_rows,
        min_per_row=2, max_per_row=MATRIX.n_columns - 1,
    )
    scheme = UnevenEccScheme(MATRIX.m, MATRIX.n_columns, parity)
    pipeline = DnaStoragePipeline(PipelineConfig(matrix=MATRIX, layout="baseline"))
    return {
        "uneven_design": _uneven_failures(scheme, pipeline, DESIGN_COVERAGE, rng),
        "uneven_off": _uneven_failures(scheme, pipeline, OFF_DESIGN_COVERAGE, rng),
        "gini_design": _gini_exact_rate(DESIGN_COVERAGE, rng),
        "gini_off": _gini_exact_rate(OFF_DESIGN_COVERAGE, rng),
        "parity_profile": parity,
    }


def test_ablation_uneven_ecc(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    parity = results.pop("parity_profile")
    print_series(
        f"Ablation: uneven ECC (designed at coverage {DESIGN_COVERAGE}, "
        f"off-design {OFF_DESIGN_COVERAGE}) vs Gini",
        ["row-failure-rate / exact-rate"],
        {key: [value] for key, value in results.items()},
    )
    print("per-row parity profile:", parity)
    # The provisioning is genuinely uneven: middle rows got more parity.
    rows = MATRIX.payload_rows
    assert max(parity[rows // 2 - 2: rows // 2 + 2]) > 2 * min(parity[:2] + parity[-2:])
    # At the design point, uneven ECC mostly works.
    assert results["uneven_design"] <= 0.15
    # Off the design point, the realized skew exceeds the provisioned one
    # somewhere and row failures multiply.
    assert results["uneven_off"] > 2 * max(results["uneven_design"], 0.01)
