"""Tests for the direct 2-bit base mapping.

The bit <-> base codec and ``pack_uint`` live in :mod:`oracles.core`,
where the frozen encoder renders strands through them; their tests pin
the paper's mapping that the live strand renderer must reproduce.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles.core import DirectCodec, pack_uint
from repro.codec.basemap import (
    BASES,
    bases_to_indices,
    indices_to_bases,
    random_bases,
)


class TestBaseConversions:
    def test_known_mapping(self):
        np.testing.assert_array_equal(bases_to_indices("ACGT"), [0, 1, 2, 3])

    def test_roundtrip(self):
        strand = "GATTACA"
        assert indices_to_bases(bases_to_indices(strand)) == strand

    def test_invalid_character(self):
        with pytest.raises(ValueError, match="invalid DNA"):
            bases_to_indices("ACGX")

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            indices_to_bases(np.array([4]))

    def test_empty(self):
        assert bases_to_indices("").size == 0
        assert indices_to_bases(np.zeros(0, dtype=np.uint8)) == ""


class TestRandomBases:
    def test_length(self):
        assert len(random_bases(17, rng=0)) == 17

    def test_deterministic(self):
        assert random_bases(50, rng=3) == random_bases(50, rng=3)

    def test_alphabet(self):
        assert set(random_bases(200, rng=1)) <= set(BASES)


class TestDirectCodec:
    @pytest.fixture
    def codec(self):
        return DirectCodec()

    def test_paper_mapping(self, codec):
        # 00=A, 01=C, 10=G, 11=T (Section 2.1).
        bits = np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=np.uint8)
        assert codec.encode(bits) == "ACGT"

    def test_decode_known(self, codec):
        np.testing.assert_array_equal(
            codec.decode("TA"), [1, 1, 0, 0]
        )

    def test_odd_bit_count_rejected(self, codec):
        with pytest.raises(ValueError, match="even"):
            codec.encode(np.array([1], dtype=np.uint8))

    def test_non_binary_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.encode(np.array([0, 2], dtype=np.uint8))

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=100)
           .filter(lambda bits: len(bits) % 2 == 0))
    def test_roundtrip_property(self, bits):
        codec = DirectCodec()
        array = np.array(bits, dtype=np.uint8)
        np.testing.assert_array_equal(codec.decode(codec.encode(array)), array)


class TestPackUint:
    @given(st.integers(0, 2**32 - 1), st.integers(32, 40))
    def test_msb_first_roundtrip(self, value, width):
        bits = pack_uint(value, width)
        assert bits.size == width
        assert int("".join(map(str, bits)), 2) == value

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            pack_uint(4, 2)
