"""Tests for the ChaCha20 implementation (RFC 8439 vectors + properties)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ChaCha20

KEY = bytes(range(32))
NONCE = bytes.fromhex("000000000000004a00000000")


class TestRfc8439Vectors:
    def test_keystream_block_vector(self):
        """RFC 8439 section 2.3.2 block function test vector."""
        key = bytes(range(32))
        nonce = bytes.fromhex("000000090000004a00000000")
        stream = ChaCha20(key, nonce).keystream(64, initial_counter=1)
        expected = bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        )
        assert stream == expected

    def test_encryption_vector(self):
        """RFC 8439 section 2.4.2 encryption test vector."""
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        ciphertext = ChaCha20(KEY, NONCE).process(plaintext)
        expected = bytes.fromhex(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d"
        )
        assert ciphertext == expected


class TestBasics:
    def test_roundtrip(self):
        data = b"the quick brown fox" * 10
        cipher = ChaCha20(KEY, NONCE)
        assert cipher.process(cipher.process(data)) == data

    def test_empty_message(self):
        assert ChaCha20(KEY, NONCE).process(b"") == b""

    def test_key_length_validated(self):
        with pytest.raises(ValueError):
            ChaCha20(b"short", NONCE)

    def test_nonce_length_validated(self):
        with pytest.raises(ValueError):
            ChaCha20(KEY, b"short")

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            ChaCha20(KEY, NONCE).keystream(-1)

    def test_different_nonces_differ(self):
        other = bytes.fromhex("000000000000004a00000001")
        assert ChaCha20(KEY, NONCE).process(b"x" * 64) \
            != ChaCha20(KEY, other).process(b"x" * 64)

    def test_counter_offsets_are_consistent(self):
        cipher = ChaCha20(KEY, NONCE)
        full = cipher.keystream(128, initial_counter=1)
        second_block = cipher.keystream(64, initial_counter=2)
        assert full[64:] == second_block


class TestStreamCipherLocality:
    """The property DnaMapper's encrypted-approximate-storage relies on."""

    def test_single_bit_flip_stays_local(self):
        plaintext = bytes(range(256))
        ciphertext = bytearray(ChaCha20(KEY, NONCE).process(plaintext))
        ciphertext[100] ^= 0x40
        recovered = ChaCha20(KEY, NONCE).process(bytes(ciphertext))
        diffs = [i for i in range(256) if recovered[i] != plaintext[i]]
        assert diffs == [100]
        assert recovered[100] ^ plaintext[100] == 0x40

    @settings(max_examples=30)
    @given(st.binary(min_size=1, max_size=300), st.data())
    def test_flip_property(self, plaintext, data):
        position = data.draw(st.integers(0, len(plaintext) - 1))
        mask = data.draw(st.integers(1, 255))
        ciphertext = bytearray(ChaCha20(KEY, NONCE).process(plaintext))
        ciphertext[position] ^= mask
        recovered = ChaCha20(KEY, NONCE).process(bytes(ciphertext))
        assert recovered[position] == plaintext[position] ^ mask
        assert recovered[:position] == plaintext[:position]
        assert recovered[position + 1:] == plaintext[position + 1:]

    def test_keystream_looks_balanced(self):
        stream = np.frombuffer(ChaCha20(KEY, NONCE).keystream(1 << 16),
                               dtype=np.uint8)
        bit_fraction = np.unpackbits(stream).mean()
        assert 0.49 < bit_fraction < 0.51
