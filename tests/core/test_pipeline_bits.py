"""Bit-plumbing invariants of the pipeline: symbols, placement, ranking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import ErrorModel, FixedCoverage, SequencingSimulator
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig

MATRIX = MatrixConfig(m=8, n_columns=24, nsym=4, payload_rows=5)


@pytest.fixture
def pipeline():
    return DnaStoragePipeline(PipelineConfig(matrix=MATRIX, layout="dnamapper"))


class TestBitSymbolPlumbing:
    @settings(max_examples=30)
    @given(st.integers(0, 2**31))
    def test_bits_to_symbols_roundtrip(self, seed):
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=MATRIX))
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, MATRIX.data_bits).astype(np.uint8)
        symbols = pipeline._bits_to_symbols(bits)
        assert symbols.shape == (MATRIX.data_symbols,)
        assert symbols.max() < 256
        np.testing.assert_array_equal(pipeline._symbols_to_bits(symbols), bits)

    def test_msb_first_symbol_packing(self):
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=MATRIX))
        bits = np.zeros(MATRIX.data_bits, dtype=np.uint8)
        bits[0] = 1  # the very first bit is the MSB of symbol 0
        symbols = pipeline._bits_to_symbols(bits)
        assert symbols[0] == 128


class TestPrioritizedBits:
    def test_matches_encode_path(self, pipeline, rng):
        """prioritized_bits(ground-truth matrix) returns the prioritized
        stream that encode() placed."""
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        ranking = rng.permutation(bits.size)
        unit = pipeline.encode(bits, ranking=ranking)
        prioritized = pipeline.prioritized_bits(unit.matrix)
        np.testing.assert_array_equal(prioritized, bits[ranking])

    def test_accepts_received_unit(self, pipeline, rng):
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(ErrorModel.uniform(0.0), FixedCoverage(1))
        received = pipeline.receive(simulator.sequence_batch(unit.strands, rng))
        np.testing.assert_array_equal(
            pipeline.prioritized_bits(received),
            pipeline.prioritized_bits(received.matrix),
        )


class TestUnrankBits:
    def test_inverse_of_ranking(self, pipeline, rng):
        n = 500
        bits = rng.integers(0, 2, n).astype(np.uint8)
        ranking = rng.permutation(n)
        prioritized = np.zeros(pipeline.capacity_bits, dtype=np.uint8)
        prioritized[:n] = bits[ranking]
        recovered = pipeline.unrank_bits(prioritized, n, ranking)
        np.testing.assert_array_equal(recovered, bits)

    def test_none_ranking_is_prefix(self, pipeline, rng):
        prioritized = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        np.testing.assert_array_equal(
            pipeline.unrank_bits(prioritized, 100, None), prioritized[:100]
        )

    def test_validation(self, pipeline):
        full = np.zeros(pipeline.capacity_bits, dtype=np.uint8)
        with pytest.raises(ValueError):
            pipeline.unrank_bits(full, pipeline.capacity_bits + 1, None)
        with pytest.raises(ValueError):
            pipeline.unrank_bits(full, 10, np.arange(5))
