"""Tests for the random-interleaver ablation layout."""

import numpy as np
import pytest

from repro.channel import ErrorModel, FixedCoverage, SequencingSimulator
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig
from repro.core.layout import RandomInterleavedLayout, build_layout


@pytest.fixture
def config():
    return MatrixConfig(m=8, n_columns=30, nsym=6, payload_rows=5)


class TestGeometry:
    def test_every_cell_owned_once(self, config):
        layout = RandomInterleavedLayout(config)
        seen = set()
        for k in range(layout.n_codewords):
            for cell in layout.codeword_cells(k):
                assert cell not in seen
                seen.add(cell)
        assert len(seen) == config.payload_rows * config.n_columns

    def test_data_parity_split_preserved(self, config):
        layout = RandomInterleavedLayout(config)
        for k in range(layout.n_codewords):
            cells = layout.codeword_cells(k)
            assert len(cells) == config.n_columns
            data = cells[: config.data_columns]
            parity = cells[config.data_columns:]
            assert all(c < config.data_columns for _, c in data)
            assert all(c >= config.data_columns for _, c in parity)

    def test_deterministic_for_seed(self, config):
        a = RandomInterleavedLayout(config, seed=3)
        b = RandomInterleavedLayout(config, seed=3)
        assert a.codeword_cells(0) == b.codeword_cells(0)

    def test_some_codeword_doubles_up_in_a_column(self, config):
        """The structural defect vs Gini: duplicate columns do occur."""
        layout = RandomInterleavedLayout(config)
        doubles = 0
        for k in range(layout.n_codewords):
            columns = [c for _, c in layout.codeword_cells(k)]
            doubles += len(columns) - len(set(columns))
        assert doubles > 0

    def test_factory(self, config):
        assert isinstance(build_layout("random", config),
                          RandomInterleavedLayout)


class TestPipelineIntegration:
    def test_noiseless_roundtrip(self, config, rng):
        pipeline = DnaStoragePipeline(
            PipelineConfig(matrix=config, layout="random")
        )
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(ErrorModel.uniform(0.0), FixedCoverage(1))
        decoded, report = pipeline.decode(
            simulator.sequence_batch(unit.strands, rng), bits.size
        )
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_full_erasure_budget_often_fails(self, config, rng):
        """Unlike Gini, nsym molecule losses are not guaranteed recoverable."""
        pipeline = DnaStoragePipeline(
            PipelineConfig(matrix=config, layout="random")
        )
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(ErrorModel.uniform(0.0), FixedCoverage(1))
        failures = 0
        for trial in range(10):
            batch = simulator.sequence_batch(unit.strands, rng)
            kept = batch.coverage_counts()
            kept[rng.choice(config.n_columns, config.nsym,
                            replace=False)] = 0  # lose nsym molecules
            _, report = pipeline.decode(batch.select_prefix(kept), bits.size)
            failures += int(not report.clean)
        assert failures > 0
