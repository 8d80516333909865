"""Unit and property tests for the Reed-Solomon codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.ecc import ReferenceReedSolomon
from repro.ecc import DecodeFailure, ReedSolomon
from repro.ecc.batched import as_erasure_mask, decode_words


@pytest.fixture(scope="module")
def rs():
    return ReedSolomon(8, nsym=16, n=80)


def _corrupt(word, positions, rng):
    word = word.copy()
    for pos in positions:
        word[pos] ^= int(rng.integers(1, 256))
    return word


class TestConstruction:
    def test_natural_length_default(self):
        assert ReedSolomon(8, nsym=32).n == 255

    def test_shortened(self, rs):
        assert rs.n == 80 and rs.k == 64

    def test_rejects_oversized_n(self):
        with pytest.raises(ValueError):
            ReedSolomon(4, nsym=2, n=16)

    def test_rejects_bad_nsym(self):
        with pytest.raises(ValueError):
            ReedSolomon(8, nsym=0)
        with pytest.raises(ValueError):
            ReedSolomon(8, nsym=80, n=80)

    def test_repr(self, rs):
        assert "n=80" in repr(rs)


class TestEncode:
    def test_systematic_prefix(self, rs, rng):
        message = rng.integers(0, 256, rs.k)
        codeword = rs.encode(message)
        np.testing.assert_array_equal(codeword[: rs.k], message)

    def test_codeword_validates(self, rs, rng):
        codeword = rs.encode(rng.integers(0, 256, rs.k))
        assert rs.check(codeword)

    def test_check_validation(self, rs):
        with pytest.raises(ValueError, match="word must have 80 symbols"):
            rs.check(np.zeros(rs.n + 1, dtype=np.int64))
        word = np.zeros(rs.n, dtype=np.int64)
        word[5] = 256
        with pytest.raises(ValueError, match="out of field range"):
            rs.check(word)

    def test_zero_message_gives_zero_codeword(self, rs):
        codeword = rs.encode(np.zeros(rs.k, dtype=np.int64))
        assert not codeword.any()

    def test_wrong_length_rejected(self, rs):
        with pytest.raises(ValueError):
            rs.encode(np.zeros(rs.k + 1, dtype=np.int64))

    def test_out_of_field_symbol_rejected(self, rs):
        message = np.zeros(rs.k, dtype=np.int64)
        message[0] = 256
        with pytest.raises(ValueError):
            rs.encode(message)

    def test_parity_is_the_generator_remainder(self, rs, rng):
        message = rng.integers(0, 256, rs.k)
        reference = ReferenceReedSolomon(rs.m, nsym=rs.nsym, n=rs.n)
        np.testing.assert_array_equal(
            rs.encode(message)[rs.k:], reference.parity(message)
        )

    def test_linearity(self, rs, rng):
        a = rng.integers(0, 256, rs.k)
        b = rng.integers(0, 256, rs.k)
        np.testing.assert_array_equal(
            rs.encode(a) ^ rs.encode(b), rs.encode(a ^ b)
        )


class TestDecodeErrors:
    def test_no_errors(self, rs, rng):
        message = rng.integers(0, 256, rs.k)
        decoded, n = rs.decode(rs.encode(message))
        np.testing.assert_array_equal(decoded, message)
        assert n == 0

    @pytest.mark.parametrize("n_errors", [1, 4, 8])
    def test_corrects_up_to_capability(self, rs, rng, n_errors):
        message = rng.integers(0, 256, rs.k)
        codeword = rs.encode(message)
        positions = rng.choice(rs.n, n_errors, replace=False)
        decoded, n = rs.decode(_corrupt(codeword, positions, rng))
        np.testing.assert_array_equal(decoded, message)
        assert n == n_errors

    def test_fails_beyond_capability(self, rs, rng):
        message = rng.integers(0, 256, rs.k)
        codeword = rs.encode(message)
        positions = rng.choice(rs.n, 20, replace=False)
        corrupted = _corrupt(codeword, positions, rng)
        try:
            decoded, _ = rs.decode(corrupted)
            # A miscorrection is theoretically possible but must not
            # silently return the true message while claiming success.
            assert not np.array_equal(decoded, message) or rs.check(
                rs.encode(decoded)
            )
        except DecodeFailure:
            pass  # the expected outcome

    def test_wrong_length_rejected(self, rs):
        with pytest.raises(ValueError):
            rs.decode(np.zeros(10, dtype=np.int64))


class TestDecodeErasures:
    def test_full_erasure_budget(self, rs, rng):
        message = rng.integers(0, 256, rs.k)
        codeword = rs.encode(message)
        erasures = rng.choice(rs.n, rs.nsym, replace=False)
        word = codeword.copy()
        word[erasures] = 0
        decoded, _ = rs.decode(word, erasures=erasures)
        np.testing.assert_array_equal(decoded, message)

    def test_erasure_values_are_ignored(self, rs, rng):
        message = rng.integers(0, 256, rs.k)
        codeword = rs.encode(message)
        erasures = [0, 5, 17]
        word = codeword.copy()
        word[erasures] = 255  # garbage, not zero
        decoded, _ = rs.decode(word, erasures=erasures)
        np.testing.assert_array_equal(decoded, message)

    def test_too_many_erasures(self, rs):
        with pytest.raises(DecodeFailure):
            rs.decode(np.zeros(rs.n, dtype=np.int64),
                      erasures=list(range(rs.nsym + 1)))

    def test_erasure_index_out_of_range(self, rs):
        with pytest.raises(ValueError):
            rs.decode(np.zeros(rs.n, dtype=np.int64), erasures=[rs.n])

    def test_duplicate_erasures_collapse(self, rs, rng):
        message = rng.integers(0, 256, rs.k)
        codeword = rs.encode(message)
        word = codeword.copy()
        word[3] = 0
        decoded, _ = rs.decode(word, erasures=[3, 3, 3])
        np.testing.assert_array_equal(decoded, message)


class TestDecodeMixed:
    @pytest.mark.parametrize("n_errors,n_erasures", [(1, 14), (4, 8), (7, 2)])
    def test_mixed_within_budget(self, rs, rng, n_errors, n_erasures):
        message = rng.integers(0, 256, rs.k)
        codeword = rs.encode(message)
        all_positions = rng.permutation(rs.n)
        erasures = all_positions[:n_erasures]
        errors = all_positions[n_erasures: n_erasures + n_errors]
        word = codeword.copy()
        word[erasures] = 0
        word = _corrupt(word, errors, rng)
        decoded, _ = rs.decode(word, erasures=erasures)
        np.testing.assert_array_equal(decoded, message)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 8), st.integers(0, 8))
    def test_random_mixes(self, seed, n_errors, n_erasures):
        if 2 * n_errors + n_erasures > 16:
            return
        local = np.random.default_rng(seed)
        codec = ReedSolomon(8, nsym=16, n=60)
        message = local.integers(0, 256, codec.k)
        codeword = codec.encode(message)
        positions = local.permutation(codec.n)
        erasures = positions[:n_erasures]
        errors = positions[n_erasures: n_erasures + n_errors]
        word = codeword.copy()
        word[erasures] = 0
        word = _corrupt(word, errors, local)
        decoded, _ = codec.decode(word, erasures=erasures)
        np.testing.assert_array_equal(decoded, message)


class TestOtherFields:
    @pytest.mark.parametrize("m", [4, 12, 16])
    def test_roundtrip_with_errors(self, m, rng):
        n = min((1 << m) - 1, 40)
        codec = ReedSolomon(m, nsym=8, n=n)
        message = rng.integers(0, 1 << m, codec.k)
        codeword = codec.encode(message)
        word = codeword.copy()
        for pos in rng.choice(n, 4, replace=False):
            word[pos] ^= int(rng.integers(1, 1 << m))
        decoded, _ = codec.decode(word)
        np.testing.assert_array_equal(decoded, message)

    def test_paper_scale_gf16_smoke(self, rng):
        # The paper's field (GF(2^16)); a shortened codeword keeps it fast.
        codec = ReedSolomon(16, nsym=12, n=100)
        message = rng.integers(0, 1 << 16, codec.k)
        codeword = codec.encode(message)
        word = codeword.copy()
        word[0] ^= 1
        word[50] ^= 40000
        erasures = [70, 71, 72]
        word[70:73] = 0
        decoded, _ = codec.decode(word, erasures=erasures)
        np.testing.assert_array_equal(decoded, message)


class TestBatchedEntryPoints:
    """parity_many / syndromes_many: one GF matrix product, row-wise
    identical to the frozen per-codeword division and Horner syndromes
    (``oracles.ecc.ReferenceReedSolomon``)."""

    @pytest.mark.parametrize("m,nsym,n", [(8, 8, 40), (8, 47, 255),
                                          (4, 5, 15), (16, 12, 100)])
    def test_parity_many_matches_parity(self, m, nsym, n, rng):
        codec = ReedSolomon(m, nsym=nsym, n=n)
        reference = ReferenceReedSolomon(m, nsym=nsym, n=n)
        messages = rng.integers(0, 1 << m, size=(9, codec.k))
        batched = codec.parity_many(messages)
        for row, message in zip(batched, messages):
            np.testing.assert_array_equal(row, reference.parity(message))

    def test_parity_many_rows_are_codewords(self, rng):
        codec = ReedSolomon(8, nsym=8, n=40)
        messages = rng.integers(0, 256, size=(5, codec.k))
        parity = codec.parity_many(messages)
        for message, p in zip(messages, parity):
            assert codec.check(np.concatenate([message, p]))

    def test_parity_many_empty_and_validation(self, rng):
        codec = ReedSolomon(8, nsym=8, n=40)
        assert codec.parity_many(np.zeros((0, codec.k))).shape == (0, 8)
        with pytest.raises(ValueError):
            codec.parity_many(np.zeros((2, codec.k + 1)))
        with pytest.raises(ValueError):
            codec.parity_many(np.full((2, codec.k), 256))

    @pytest.mark.parametrize("m,nsym,n", [(8, 8, 40), (16, 12, 100)])
    def test_syndromes_many_matches_scalar(self, m, nsym, n, rng):
        codec = ReedSolomon(m, nsym=nsym, n=n)
        reference = ReferenceReedSolomon(m, nsym=nsym, n=n)
        words = rng.integers(0, 1 << m, size=(7, n))
        batched = codec.syndromes_many(words)
        for row, word in zip(batched, words):
            np.testing.assert_array_equal(row, reference._syndromes(word))

    def test_syndromes_many_zero_iff_codeword(self, rng):
        codec = ReedSolomon(8, nsym=8, n=40)
        clean = codec.encode(rng.integers(0, 256, codec.k))
        dirty = clean.copy()
        dirty[3] ^= 17
        syndromes = codec.syndromes_many(np.stack([clean, dirty]))
        assert not syndromes[0].any()
        assert syndromes[1].any()

    def test_syndromes_many_validation(self):
        codec = ReedSolomon(8, nsym=8, n=40)
        with pytest.raises(ValueError):
            codec.syndromes_many(np.zeros((2, 41)))
        with pytest.raises(ValueError):
            codec.syndromes_many(np.full((2, 40), 256))

    @pytest.mark.parametrize("m", range(2, 17))
    def test_products_match_scalar_in_every_field(self, m, rng):
        """Both products in every supported field, one or two bytes per
        symbol: random rows plus all-zero and all-(2^m - 1) rows, whose
        every operand bit is set (the largest counts the float32
        product sees). n is shortened where 2^m - 1 is large."""
        n = min((1 << m) - 1, 48)
        codec = ReedSolomon(m, nsym=min(n - 1, 8), n=n)
        reference = ReferenceReedSolomon(m, nsym=codec.nsym, n=n)
        top = codec.field.max_value
        messages = np.vstack([rng.integers(0, top + 1, size=(4, codec.k)),
                              np.zeros((1, codec.k), dtype=np.int64),
                              np.full((1, codec.k), top)])
        for row, message in zip(codec.parity_many(messages), messages):
            np.testing.assert_array_equal(row, reference.parity(message))
        words = np.vstack([rng.integers(0, top + 1, size=(4, n)),
                           np.zeros((1, n), dtype=np.int64),
                           np.full((1, n), top)])
        for row, word in zip(codec.syndromes_many(words), words):
            np.testing.assert_array_equal(row, reference._syndromes(word))

    @pytest.mark.parametrize("m", range(2, 17))
    def test_single_codeword_calls_in_every_field(self, m, rng):
        """``encode`` and ``check`` are one-row cases of the products: the
        parity is the frozen generator division's, and ``check`` accepts
        the codeword and rejects it with one symbol changed."""
        n = min((1 << m) - 1, 48)
        codec = ReedSolomon(m, nsym=min(n - 1, 8), n=n)
        reference = ReferenceReedSolomon(m, nsym=codec.nsym, n=n)
        message = rng.integers(0, codec.field.max_value + 1, codec.k)
        codeword = codec.encode(message)
        np.testing.assert_array_equal(codeword[:codec.k], message)
        np.testing.assert_array_equal(codeword[codec.k:],
                                      reference.parity(message))
        assert codec.check(codeword)
        codeword[-1] ^= 1
        assert reference._syndromes(codeword).any()
        assert not codec.check(codeword)

    def test_float32_products_exact_in_every_field(self):
        """The products run in float32, exact while a cell's count -- at
        most n * m <= (2^m - 1) * m -- stays below 2^24. A wider field
        needs the products revisited before it is added."""
        from repro.ecc.gf import _PRIMITIVE_POLYS

        for m in _PRIMITIVE_POLYS:
            assert ((1 << m) - 1) * m < 2 ** 24, m


class TestErasureMask:
    """``as_erasure_mask``: every erasure form decode_many accepts."""

    def test_none_is_no_erasures(self):
        mask = as_erasure_mask(None, 3, 10)
        assert mask.shape == (3, 10) and mask.dtype == bool
        assert not mask.any()

    def test_boolean_mask_used_as_is(self):
        mask = np.zeros((2, 6), dtype=bool)
        mask[1, 4] = True
        assert as_erasure_mask(mask, 2, 6) is mask

    def test_boolean_mask_shape_checked(self):
        with pytest.raises(ValueError, match=r"\(2, 6\)"):
            as_erasure_mask(np.zeros((2, 5), dtype=bool), 2, 6)

    def test_index_lists_collapse_duplicates(self):
        mask = as_erasure_mask([[0, 0, 3], [], [5]], 3, 6)
        assert mask.sum(axis=1).tolist() == [2, 0, 1]
        assert np.flatnonzero(mask[0]).tolist() == [0, 3]

    def test_row_count_checked(self):
        with pytest.raises(ValueError, match="one entry per row"):
            as_erasure_mask([[0]], 2, 6)

    @pytest.mark.parametrize("index", [-1, 6])
    def test_index_range_checked(self, index):
        with pytest.raises(ValueError, match="row 1"):
            as_erasure_mask([[0], [index]], 2, 6)


class TestDecodeWords:
    """``decode_words`` row by row equals the scalar ``decode``."""

    def test_rows_match_scalar_decode(self, rs, rng):
        messages = rng.integers(0, 256, (4, rs.k))
        words = np.array([rs.encode(message) for message in messages])
        mask = np.zeros(words.shape, dtype=bool)
        words[1] = _corrupt(words[1], [2, 40], rng)
        mask[2, [0, 9, 33]] = True
        words[2, [0, 9, 33]] = 7
        mask[3, : rs.nsym + 1] = True
        result = decode_words(rs, words, mask)
        assert result.ok.tolist() == [True, True, True, False]
        for row in range(3):
            decoded, corrected = rs.decode(
                words[row], erasures=np.flatnonzero(mask[row])
            )
            np.testing.assert_array_equal(result.messages[row], decoded)
            assert result.n_corrected[row] == corrected
        assert result.reason_counts() == {
            "ok": 3, "erasures exceed correction capability": 1,
        }

    def test_clean_rows_count_their_erasures(self, rs, rng):
        """An erased symbol that was truly zero still counts as corrected."""
        message = np.zeros(rs.k, dtype=np.int64)
        word = rs.encode(message)[None, :]
        mask = np.zeros(word.shape, dtype=bool)
        mask[0, [1, 2, 3]] = True
        result = decode_words(rs, word, mask)
        assert result.ok.tolist() == [True]
        assert result.n_corrected.tolist() == [3]

    def test_empty_batch(self, rs):
        result = decode_words(rs, np.zeros((0, rs.n), dtype=np.int64),
                              np.zeros((0, rs.n), dtype=bool))
        assert result.n_rows == 0
        assert result.messages.shape == (0, rs.k)
