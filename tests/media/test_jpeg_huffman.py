"""Tests for the JPEG entropy layer."""

import pytest

from repro.media.jpeg import huffman
from repro.media.jpeg.huffman import (
    EntropyDecodeError,
    decode_block,
    decode_magnitude,
    encode_block,
    encode_magnitude,
    magnitude_category,
)
from repro.utils.bitio import BitReader, BitWriter


class TestMagnitudeCategory:
    @pytest.mark.parametrize("value,expected", [
        (0, 0), (1, 1), (-1, 1), (2, 2), (3, 2), (-3, 2), (255, 8), (-1024, 11),
    ])
    def test_known_values(self, value, expected):
        assert magnitude_category(value) == expected


class TestMagnitudeCoding:
    @pytest.mark.parametrize("value", [0, 1, -1, 5, -5, 127, -127, 1023, -1023])
    def test_roundtrip(self, value):
        writer = BitWriter()
        category = magnitude_category(value)
        encode_magnitude(writer, value, category)
        reader = BitReader(writer.to_bytes())
        assert decode_magnitude(reader, category) == value

    def test_truncated_stream_raises(self):
        reader = BitReader(b"\x80")
        with pytest.raises(EntropyDecodeError):
            decode_magnitude(reader, 9)


class TestBlockCoding:
    def _roundtrip(self, coefficients, previous_dc=0):
        writer = BitWriter()
        encode_block(writer, coefficients, previous_dc)
        reader = BitReader(writer.to_bytes())
        return decode_block(reader, previous_dc)

    def test_all_zero_block(self):
        assert self._roundtrip([0] * 64) == [0] * 64

    def test_dc_only(self):
        block = [37] + [0] * 63
        assert self._roundtrip(block) == block

    def test_negative_dc_diff(self):
        block = [-12] + [0] * 63
        assert self._roundtrip(block, previous_dc=100) == block

    def test_sparse_ac(self):
        block = [5] + [0] * 63
        block[3] = -2
        block[20] = 7
        block[63] = 1
        assert self._roundtrip(block) == block

    def test_long_zero_run_uses_zrl(self):
        block = [0] * 64
        block[0] = 1
        block[40] = 3  # a 39-zero run needs two ZRL symbols
        assert self._roundtrip(block) == block

    def test_dense_block(self, rng):
        block = [int(v) for v in rng.integers(-80, 80, 64)]
        assert self._roundtrip(block) == block

    def test_dc_chain(self, rng):
        """DPCM threading across consecutive blocks."""
        writer = BitWriter()
        blocks = []
        previous = 0
        for _ in range(5):
            block = [int(rng.integers(-200, 200))] + [0] * 63
            blocks.append(block)
            previous = encode_block(writer, block, previous)
        reader = BitReader(writer.to_bytes())
        previous = 0
        for block in blocks:
            decoded = decode_block(reader, previous)
            assert decoded == block
            previous = decoded[0]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            encode_block(BitWriter(), [0] * 63, 0)

    def test_oversized_dc_rejected_at_encode(self):
        with pytest.raises(ValueError):
            encode_block(BitWriter(), [5000] + [0] * 63, 0)

    def test_oversized_ac_rejected_at_encode(self):
        block = [0] * 64
        block[5] = 2000
        with pytest.raises(ValueError):
            encode_block(BitWriter(), block, 0)


class TestDecodeDefensiveness:
    def test_empty_stream(self):
        reader = BitReader(b"")
        with pytest.raises(EntropyDecodeError):
            decode_block(reader, 0)

    def test_garbage_stream_raises_not_crashes(self, rng):
        for _ in range(20):
            data = rng.bytes(30)
            reader = BitReader(data)
            previous = 0
            try:
                while True:
                    block = decode_block(reader, previous)
                    previous = block[0]
            except EntropyDecodeError:
                pass  # the only acceptable failure mode

    def test_dc_wander_detected(self):
        """A decoded DC outside the baseline range raises (desync guard)."""
        writer = BitWriter()
        encode_block(writer, [1000] + [0] * 63, 0)
        reader = BitReader(writer.to_bytes())
        with pytest.raises(EntropyDecodeError):
            decode_block(reader, 1500)  # 1500 + 1000 > 2047
