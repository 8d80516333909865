"""Integration tests asserting the paper's headline qualitative claims.

Each test is a miniature version of one of the paper's evaluation
results; the full-scale versions live in ``benchmarks/``.
"""

import numpy as np
import pytest

from repro.analysis import (
    errors_per_codeword,
    gini_coefficient,
    min_coverage_for_error_free,
)
from repro.channel import ErrorModel, ReadPool
from repro.core import (
    BaselineLayout,
    DnaStoragePipeline,
    GiniLayout,
    MatrixConfig,
    PipelineConfig,
)

MATRIX = MatrixConfig(m=8, n_columns=90, nsym=17, payload_rows=14)


def _received_matrix(pipeline, unit, error_rate, coverage, rng):
    pool = ReadPool(unit.strands, ErrorModel.uniform(error_rate),
                    max_coverage=coverage, rng=rng)
    return pipeline.receive(pool.batch_at(coverage))


@pytest.mark.slow
class TestFigure11Property:
    """Gini flattens the per-codeword error distribution."""

    def test_baseline_peaks_in_middle_and_gini_flattens(self, rng):
        bits = rng.integers(0, 2, 14 * 73 * 8).astype(np.uint8)
        base_pipe = DnaStoragePipeline(
            PipelineConfig(matrix=MATRIX, layout="baseline")
        )
        gini_pipe = DnaStoragePipeline(
            PipelineConfig(matrix=MATRIX, layout="gini")
        )
        base_counts = np.zeros(14)
        gini_counts = np.zeros(14)
        for trial in range(6):
            unit_b = base_pipe.encode(bits)
            received_b = _received_matrix(base_pipe, unit_b, 0.10, 5, rng)
            base_counts += errors_per_codeword(
                BaselineLayout(MATRIX), unit_b.matrix, received_b.matrix,
                received_b.erased_columns,
            )
            unit_g = gini_pipe.encode(bits)
            received_g = _received_matrix(gini_pipe, unit_g, 0.10, 5, rng)
            gini_counts += errors_per_codeword(
                GiniLayout(MATRIX), unit_g.matrix, received_g.matrix,
                received_g.erased_columns,
            )
        # Baseline: middle rows collect far more errors than edge rows.
        middle = base_counts[5:9].mean()
        edges = np.concatenate([base_counts[:2], base_counts[-2:]]).mean()
        assert middle > 2 * edges
        # Gini: distribution is much more even (smaller Gini coefficient).
        assert gini_coefficient(gini_counts) < 0.5 * gini_coefficient(base_counts)
        # Total error mass is comparable (Gini redistributes, not removes).
        assert 0.6 < gini_counts.sum() / max(base_counts.sum(), 1) < 1.4


@pytest.mark.slow
class TestFigure12Property:
    """Gini needs less coverage than the baseline for error-free decode.

    The sweep is the smallest shape that still exercises the search: two
    trials over a grid wide enough that both layouts find an error-free
    coverage below the top of the grid (the full-scale sweep is
    ``benchmarks/test_fig12_min_coverage.py``).
    """

    def test_gini_reduces_min_coverage(self):
        coverages = range(2, 18)
        base = min_coverage_for_error_free(
            DnaStoragePipeline(PipelineConfig(matrix=MATRIX, layout="baseline")),
            error_rate=0.09, coverages=coverages, trials=2, rng=11,
        )
        gini = min_coverage_for_error_free(
            DnaStoragePipeline(PipelineConfig(matrix=MATRIX, layout="gini")),
            error_rate=0.09, coverages=coverages, trials=2, rng=11,
        )
        # Both searches must actually succeed on the grid (max+1 marks
        # failure), otherwise the comparison is vacuous.
        assert base <= coverages[-1]
        assert gini <= base


class TestGiniReliabilityClasses:
    """Figure 8b: excluded rows form separately-protected classes."""

    def test_roundtrip_and_partition(self, rng):
        config = PipelineConfig(
            matrix=MATRIX, layout="gini", gini_excluded_rows=(0, 13)
        )
        pipeline = DnaStoragePipeline(config)
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        pool = ReadPool(unit.strands, ErrorModel.uniform(0.05),
                        max_coverage=10, rng=rng)
        decoded, report = pipeline.decode(pool.batch_at(10), bits.size)
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)
