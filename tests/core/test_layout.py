"""Tests for matrix geometry and the three layout policies."""

import numpy as np
import pytest

from repro.core import BaselineLayout, DnaMapperLayout, GiniLayout, MatrixConfig
from repro.core.layout import build_layout


@pytest.fixture
def config():
    return MatrixConfig(m=8, n_columns=40, nsym=8, payload_rows=6)


class TestMatrixConfig:
    def test_derived_quantities(self, config):
        assert config.data_columns == 32
        assert config.index_bases == 4
        assert config.payload_bases == 24
        assert config.strand_length == 28
        assert config.data_symbols == 192
        assert config.data_bits == 1536
        assert config.nsym / config.n_columns == pytest.approx(0.2)

    def test_paper_scale_geometry(self):
        """The paper's GF(2^16) unit: 82 rows, 65535 columns."""
        config = MatrixConfig(m=16, n_columns=65535, nsym=12056,
                              payload_rows=82)
        assert config.index_bases == 8  # 16 bits, as in Section 6.1.1
        assert config.data_bits / 8 / 2**20 == pytest.approx(8.36, abs=0.1)

    def test_rejects_odd_symbol_size(self):
        with pytest.raises(ValueError):
            MatrixConfig(m=7)

    def test_rejects_too_many_columns(self):
        with pytest.raises(ValueError):
            MatrixConfig(m=4, n_columns=16, nsym=2, payload_rows=4)

    def test_rejects_bad_nsym(self):
        with pytest.raises(ValueError):
            MatrixConfig(m=8, n_columns=40, nsym=40, payload_rows=4)

    def test_nsym_zero_allowed(self):
        assert MatrixConfig(m=8, n_columns=40, nsym=0,
                            payload_rows=4).data_columns == 40


def _assert_partition(layout, config):
    """Every matrix cell belongs to exactly one codeword, at its column."""
    seen = {}
    for k in range(layout.n_codewords):
        cells = layout.codeword_cells(k)
        assert len(cells) == config.n_columns
        for position, (row, column) in enumerate(cells):
            assert position == column  # symbol j lives in column j
            assert (row, column) not in seen
            seen[(row, column)] = k
    assert len(seen) == config.payload_rows * config.n_columns


class TestBaselineLayout:
    def test_codewords_are_rows(self, config):
        layout = BaselineLayout(config)
        assert layout.codeword_cells(2) == [(2, c) for c in range(40)]

    def test_partition(self, config):
        _assert_partition(BaselineLayout(config), config)

    def test_placement_is_column_major(self, config):
        layout = BaselineLayout(config)
        order = list(layout.placement_order())
        assert order[:6] == [(r, 0) for r in range(6)]
        assert len(order) == config.data_symbols
        assert all(column < config.data_columns for _, column in order)

    def test_codeword_index_bounds(self, config):
        layout = BaselineLayout(config)
        with pytest.raises(ValueError):
            layout.codeword_cells(6)


class TestGiniLayout:
    def test_partition(self, config):
        _assert_partition(GiniLayout(config), config)

    def test_diagonal_geometry(self, config):
        layout = GiniLayout(config)
        cells = layout.codeword_cells(0)
        rows = [row for row, _ in cells]
        assert rows[:7] == [0, 1, 2, 3, 4, 5, 0]  # wraps around the rows

    def test_every_codeword_touches_every_row_position(self, config):
        """The de-biasing property: each codeword cycles through all rows."""
        layout = GiniLayout(config)
        for k in range(layout.n_codewords):
            rows = {row for row, _ in layout.codeword_cells(k)}
            assert rows == set(range(config.payload_rows))

    def test_erasure_protection_matches_baseline(self, config):
        """One lost column costs every codeword exactly one symbol."""
        layout = GiniLayout(config)
        for column in (0, 17, 39):
            rows = [layout.codeword_cells(k)[column][0]
                    for k in range(layout.n_codewords)]
            assert sorted(rows) == list(range(config.payload_rows))

    def test_excluded_rows_stay_row_codewords(self, config):
        layout = GiniLayout(config, excluded_rows=[0, 5])
        assert layout.codeword_cells(0) == [(0, c) for c in range(40)]
        assert layout.codeword_cells(5) == [(5, c) for c in range(40)]
        _assert_partition(layout, config)

    def test_interleaved_group_avoids_excluded_rows(self, config):
        layout = GiniLayout(config, excluded_rows=[0])
        for k in range(1, 6):
            rows = {row for row, _ in layout.codeword_cells(k)}
            assert 0 not in rows

    def test_rejects_all_rows_excluded(self, config):
        with pytest.raises(ValueError):
            GiniLayout(config, excluded_rows=list(range(6)))

    def test_rejects_bad_excluded_row(self, config):
        with pytest.raises(ValueError):
            GiniLayout(config, excluded_rows=[6])


class TestDnaMapperLayout:
    def test_partition(self, config):
        _assert_partition(DnaMapperLayout(config), config)

    def test_row_priority_order(self, config):
        layout = DnaMapperLayout(config)
        # Rows 0..5; reliability: last row, first row, second-to-last, ...
        assert layout.row_priority_order() == [5, 0, 4, 1, 3, 2]

    def test_odd_row_count(self):
        config = MatrixConfig(m=8, n_columns=40, nsym=8, payload_rows=5)
        assert DnaMapperLayout(config).row_priority_order() == [4, 0, 3, 1, 2]

    def test_placement_fills_reliable_rows_first(self, config):
        layout = DnaMapperLayout(config)
        order = list(layout.placement_order())
        first_class = order[: config.data_columns]
        assert all(row == 5 for row, _ in first_class)
        second_class = order[config.data_columns: 2 * config.data_columns]
        assert all(row == 0 for row, _ in second_class)

    def test_placement_covers_all_data_cells(self, config):
        layout = DnaMapperLayout(config)
        order = list(layout.placement_order())
        assert len(set(order)) == config.data_symbols


class TestBuildLayout:
    def test_factory(self, config):
        assert isinstance(build_layout("baseline", config), BaselineLayout)
        assert isinstance(build_layout("gini", config), GiniLayout)
        assert isinstance(build_layout("dnamapper", config), DnaMapperLayout)

    def test_unknown_name(self, config):
        with pytest.raises(ValueError):
            build_layout("zigzag", config)
