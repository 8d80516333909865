"""Tests for the cost model."""

import pytest

from repro.analysis.cost import CostModel
from repro.core import MatrixConfig

MATRIX = MatrixConfig(m=8, n_columns=100, nsym=18, payload_rows=12)


class TestCostModel:
    @pytest.fixture
    def model(self):
        return CostModel(synthesis_per_base=1.0, sequencing_per_base=0.01,
                         primer_overhead_bases=40)

    def test_strand_bases_includes_primers(self, model):
        assert model.strand_bases(MATRIX) == MATRIX.strand_length + 40

    def test_write_cost_scales_with_columns(self, model):
        small = MatrixConfig(m=8, n_columns=50, nsym=9, payload_rows=12)
        assert model.write_cost(MATRIX) == pytest.approx(
            2 * model.write_cost(small)
        )

    def test_write_cost_per_data_bit_decreases_with_less_parity(self, model):
        lean = MatrixConfig(m=8, n_columns=100, nsym=6, payload_rows=12)
        assert (model.write_cost_per_data_bit(lean)
                < model.write_cost_per_data_bit(MATRIX))

    def test_read_cost_linear_in_coverage(self, model):
        assert model.read_cost(MATRIX, 20) == pytest.approx(
            2 * model.read_cost(MATRIX, 10)
        )

    def test_read_saving_matches_coverage_ratio(self, model):
        # Paper headline: 30% lower coverage = 30% lower read cost.
        assert model.read_saving(MATRIX, 10, 7) == pytest.approx(0.3)

    def test_validation(self, model):
        with pytest.raises(ValueError):
            CostModel(synthesis_per_base=0)
        with pytest.raises(ValueError):
            model.read_cost(MATRIX, -1)
        with pytest.raises(ValueError):
            model.read_saving(MATRIX, 0, 0)
