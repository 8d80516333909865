"""Unit and property tests for bit-level I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bitio import (
    BitReader,
    BitWriter,
    bits_to_bytes,
    bytes_to_bits,
)


class TestBitWriter:
    def test_empty_writer_has_zero_length(self):
        assert len(BitWriter()) == 0
        assert BitWriter().to_bytes() == b""

    def test_single_bit_sets_msb(self):
        writer = BitWriter()
        writer.write_bit(1)
        assert writer.to_bytes() == b"\x80"
        assert len(writer) == 1

    def test_eight_bits_fill_one_byte(self):
        writer = BitWriter()
        for bit in (1, 0, 1, 0, 1, 0, 1, 0):
            writer.write_bit(bit)
        assert writer.to_bytes() == b"\xaa"
        assert len(writer) == 8

    def test_write_bits_msb_first(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        assert len(writer) == 3
        assert writer.to_bytes() == b"\xa0"

    def test_rejects_invalid_bit(self):
        with pytest.raises(ValueError):
            BitWriter().write_bit(2)

    def test_rejects_value_too_wide(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(8, 3)

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(0, -1)


class TestBitReader:
    def test_reads_bits_msb_first(self):
        reader = BitReader(b"\xa0")
        assert [reader.read_bit() for _ in range(3)] == [1, 0, 1]

    def test_read_bits_field(self):
        reader = BitReader(b"\xde\xad")
        assert reader.read_bits(16) == 0xDEAD

    def test_eof_raises(self):
        reader = BitReader(b"\xff")
        reader.read_bits(8)
        with pytest.raises(EOFError):
            reader.read_bit()

    def test_read_past_end_raises_without_consuming(self):
        reader = BitReader(b"\xff")
        with pytest.raises(EOFError):
            reader.read_bits(9)

    def test_remaining(self):
        reader = BitReader(b"\x00\x00")
        reader.read_bits(5)
        assert reader.remaining == 11


class TestConversions:
    def test_bytes_to_bits_empty(self):
        assert bytes_to_bits(b"").size == 0

    def test_bits_to_bytes_empty(self):
        assert bits_to_bytes(np.zeros(0, dtype=np.uint8)) == b""

    def test_bits_to_bytes_pads_with_zeros(self):
        assert bits_to_bytes(np.array([1], dtype=np.uint8)) == b"\x80"

    def test_known_value(self):
        np.testing.assert_array_equal(
            bytes_to_bits(b"\x01"), [0, 0, 0, 0, 0, 0, 0, 1]
        )

    @given(st.binary(max_size=200))
    def test_roundtrip(self, data):
        assert bits_to_bytes(bytes_to_bits(data)) == data


class TestWriterReaderTogether:
    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.integers(0, 2**16 - 1), st.integers(16, 20)),
                    max_size=30))
    def test_field_stream_roundtrip(self, fields):
        writer = BitWriter()
        for value, width in fields:
            writer.write_bits(value, width)
        reader = BitReader(writer.to_bytes())
        for value, width in fields:
            assert reader.read_bits(width) == value
        assert reader.remaining == (-len(writer)) % 8  # zero padding only
