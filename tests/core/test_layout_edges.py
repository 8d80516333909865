"""Edge-case geometries for the layout policies."""

import numpy as np
import pytest

from repro.channel import ErrorModel, FixedCoverage, SequencingSimulator
from repro.core import (
    DnaMapperLayout,
    DnaStoragePipeline,
    GiniLayout,
    MatrixConfig,
    PipelineConfig,
)


class TestSingleRow:
    def test_config(self):
        config = MatrixConfig(m=8, n_columns=10, nsym=2, payload_rows=1)
        assert config.data_symbols == 8

    def test_gini_single_row_is_baseline(self):
        config = MatrixConfig(m=8, n_columns=10, nsym=2, payload_rows=1)
        layout = GiniLayout(config)
        assert layout.codeword_cells(0) == [(0, c) for c in range(10)]

    def test_dnamapper_single_row_order(self):
        config = MatrixConfig(m=8, n_columns=10, nsym=2, payload_rows=1)
        assert DnaMapperLayout(config).row_priority_order() == [0]

    @pytest.mark.parametrize("layout", ["baseline", "gini", "dnamapper"])
    def test_roundtrip(self, layout, rng):
        config = MatrixConfig(m=8, n_columns=10, nsym=2, payload_rows=1)
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=config, layout=layout))
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(ErrorModel.uniform(0.0), FixedCoverage(1))
        decoded, report = pipeline.decode(
            simulator.sequence_batch(unit.strands, rng), bits.size
        )
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)


class TestTwoRows:
    def test_dnamapper_order(self):
        config = MatrixConfig(m=8, n_columns=10, nsym=2, payload_rows=2)
        assert DnaMapperLayout(config).row_priority_order() == [1, 0]

    def test_gini_alternates(self):
        config = MatrixConfig(m=8, n_columns=10, nsym=2, payload_rows=2)
        layout = GiniLayout(config)
        rows = [row for row, _ in layout.codeword_cells(0)]
        assert rows == [0, 1] * 5


class TestMoreRowsThanColumns:
    """S > C: the diagonal wraps the *column* dimension instead."""

    def test_partition_still_holds(self):
        config = MatrixConfig(m=8, n_columns=6, nsym=2, payload_rows=10)
        layout = GiniLayout(config)
        seen = set()
        for k in range(layout.n_codewords):
            for position, (row, column) in enumerate(layout.codeword_cells(k)):
                assert position == column
                assert (row, column) not in seen
                seen.add((row, column))
        assert len(seen) == 60

    def test_roundtrip(self, rng):
        config = MatrixConfig(m=8, n_columns=6, nsym=2, payload_rows=10)
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=config, layout="gini"))
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(ErrorModel.uniform(0.0), FixedCoverage(1))
        decoded, report = pipeline.decode(
            simulator.sequence_batch(unit.strands, rng), bits.size
        )
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)


class TestGf4Unit:
    """Tiny-field units (4-bit symbols, 2-base index) work end to end."""

    def test_roundtrip(self, rng):
        config = MatrixConfig(m=4, n_columns=15, nsym=3, payload_rows=6)
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=config, layout="gini"))
        assert config.index_bases == 2
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(ErrorModel.uniform(0.0), FixedCoverage(1))
        decoded, report = pipeline.decode(
            simulator.sequence_batch(unit.strands, rng), bits.size
        )
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)
