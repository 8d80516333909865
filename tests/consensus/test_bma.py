"""Tests for the one-way BMA reconstructor."""

import numpy as np
import pytest

from repro.channel import ErrorModel, ReadBatch
from repro.codec.basemap import random_bases
from repro.consensus import OneWayReconstructor, TwoWayReconstructor


@pytest.fixture
def reconstructor():
    return OneWayReconstructor()


class TestBasics:
    def test_identical_reads_reconstruct_exactly(self, reconstructor):
        strand = "ACGTACGTAC"
        assert reconstructor.reconstruct([strand] * 3, 10) == strand

    def test_output_length_always_exact(self, reconstructor):
        assert len(reconstructor.reconstruct(["ACG"], 10)) == 10
        assert len(reconstructor.reconstruct(["ACGTACGTACGT"], 5)) == 5

    def test_empty_cluster_gives_fill(self, reconstructor):
        assert reconstructor.reconstruct([], 4) == "AAAA"

    def test_zero_length(self, reconstructor):
        assert reconstructor.reconstruct(["ACGT"], 0) == ""

    def test_empty_reads_ignored(self, reconstructor):
        assert reconstructor.reconstruct(["", "ACGT", ""], 4) == "ACGT"

    def test_negative_length_rejected(self, reconstructor):
        with pytest.raises(ValueError):
            reconstructor.reconstruct(["ACGT"], -1)

    def test_bad_lookahead_rejected(self):
        with pytest.raises(ValueError):
            OneWayReconstructor(lookahead=0)

    def test_bad_fill_symbol_rejected(self):
        with pytest.raises(ValueError):
            OneWayReconstructor(n_alphabet=2, fill_symbol=2)

    @pytest.mark.parametrize("cls", [OneWayReconstructor,
                                     TwoWayReconstructor])
    @pytest.mark.parametrize("n_alphabet", [0, 1, 128, 256])
    def test_alphabet_outside_int8_range_rejected(self, cls, n_alphabet):
        """The read matrix is int8 with a -1 sentinel: 2..127 letters."""
        with pytest.raises(ValueError, match="n_alphabet must be in 2..127"):
            cls(n_alphabet=n_alphabet)

    def test_alphabet_bounds_accepted(self):
        assert OneWayReconstructor(n_alphabet=127).reconstruct_batch(
            ReadBatch.from_arrays([[np.array([126, 0, 5])] * 2]), 3
        ).tolist() == [[126, 0, 5]]
        assert TwoWayReconstructor(n_alphabet=2).reconstruct_batch(
            ReadBatch.from_arrays([[np.array([1, 0, 1])]]), 3
        ).tolist() == [[1, 0, 1]]

    def test_deterministic(self, reconstructor, rng):
        strand = random_bases(80, rng)
        reads = ErrorModel.uniform(0.1).apply_many(strand, 5, rng)
        first = reconstructor.reconstruct(reads, 80)
        second = reconstructor.reconstruct(reads, 80)
        assert first == second


class TestOutOfAlphabetSymbols:
    """A symbol past the alphabet used to land in the next cluster's
    ballot (key ``cluster * n_alphabet + symbol``): symbol 7 in cluster 0
    of a 4-letter scan voted for symbol 3 in cluster 1."""

    @pytest.mark.parametrize("cls", [OneWayReconstructor,
                                     TwoWayReconstructor])
    def test_neighbouring_cluster_not_corrupted(self, cls):
        a = np.array([7] * 4)
        b = np.array([0] * 4)
        np.testing.assert_array_equal(
            cls().reconstruct_batch(ReadBatch.from_arrays([[b]]), 4),
            [[0, 0, 0, 0]],
        )
        with pytest.raises(ValueError,
                           match="symbol 7 outside the 4-letter alphabet"):
            cls().reconstruct_batch(ReadBatch.from_arrays([[a, a], [b]]), 4)

    @pytest.mark.parametrize("cls", [OneWayReconstructor,
                                     TwoWayReconstructor])
    def test_lone_cluster_rejected(self, cls):
        with pytest.raises(ValueError, match="symbol 7 outside"):
            cls().reconstruct_batch(
                ReadBatch.from_arrays([[np.array([7] * 4)]]), 4
            )

    def test_batch_entry_point_rejected(self):
        batch = ReadBatch.from_arrays([[np.array([0, 1])],
                                       [np.array([2, 1])]])
        with pytest.raises(ValueError,
                           match="symbol 2 outside the 2-letter alphabet"):
            TwoWayReconstructor(n_alphabet=2).reconstruct_batch(batch, 2)


class TestErrorCorrection:
    def test_substitution_outvoted(self, reconstructor):
        reads = ["ACGTACGT", "ACGTACGT", "ACTTACGT"]
        assert reconstructor.reconstruct(reads, 8) == "ACGTACGT"

    def test_deletion_recovered(self, reconstructor):
        # Second read lost the 'G' at position 2.
        reads = ["ACGTACGT", "ACTACGT", "ACGTACGT"]
        assert reconstructor.reconstruct(reads, 8) == "ACGTACGT"

    def test_insertion_recovered(self, reconstructor):
        # Second read gained a 'T' before position 2.
        reads = ["ACGTACGT", "ACTGTACGT", "ACGTACGT"]
        assert reconstructor.reconstruct(reads, 8) == "ACGTACGT"

    def test_paper_figure2_example(self, reconstructor):
        # The worked example of the paper's Figure 2(b).
        original = "ACGTACGTACGT"
        reads = [
            "TCGTACGTACGT",   # substitution at position 0
            "AGTACGTACG",     # deletion of C (and a shorter tail)
            "ACGTGACGTACGT",  # insertion of G
            "ACGTATGTACGT",   # substitution
            "ACAGTACAGTACGT",  # two insertions of A
        ]
        assert reconstructor.reconstruct(reads, 12) == original

    def test_high_coverage_beats_low_coverage(self, rng):
        reconstructor = OneWayReconstructor()
        model = ErrorModel.uniform(0.10)
        length = 150
        errors = {coverage: 0 for coverage in (3, 12)}
        for _ in range(30):
            strand = random_bases(length, rng)
            pool = model.apply_many(strand, 12, rng)
            for coverage in errors:
                estimate = reconstructor.reconstruct(pool[:coverage], length)
                errors[coverage] += sum(a != b for a, b in zip(estimate, strand))
        assert errors[12] < errors[3]


class TestSkewShape:
    def test_error_grows_towards_the_end(self, rng):
        """The Figure 3 property: one-way error rises with position."""
        reconstructor = OneWayReconstructor()
        model = ErrorModel.uniform(0.05)
        length = 120
        errors = np.zeros(length)
        trials = 60
        for _ in range(trials):
            strand = random_bases(length, rng)
            reads = model.apply_many(strand, 5, rng)
            estimate = reconstructor.reconstruct(reads, length)
            errors += [a != b for a, b in zip(estimate, strand)]
        first_quarter = errors[: length // 4].mean()
        last_quarter = errors[-length // 4:].mean()
        assert last_quarter > 3 * first_quarter

    def test_substitutions_only_show_no_skew(self, rng):
        reconstructor = OneWayReconstructor()
        model = ErrorModel.substitutions_only(0.10)
        length = 120
        errors = np.zeros(length)
        for _ in range(50):
            strand = random_bases(length, rng)
            reads = model.apply_many(strand, 5, rng)
            estimate = reconstructor.reconstruct(reads, length)
            errors += [a != b for a, b in zip(estimate, strand)]
        # Without indels the scan never desynchronizes: errors stay rare
        # and roughly flat (the paper's brown line).
        assert errors[-30:].mean() <= errors[:30].mean() + 0.05 * 50


class TestBinaryAlphabet:
    def test_binary_reconstruction(self, rng):
        reconstructor = OneWayReconstructor(n_alphabet=2)
        original = rng.integers(0, 2, 40).astype(np.uint8)
        model = ErrorModel.uniform(0.1)
        reads = [model.apply_indices(original, rng, n_alphabet=2)
                 for _ in range(7)]
        estimate = reconstructor.reconstruct_batch(
            ReadBatch.from_arrays([reads]), 40
        )[0]
        assert estimate.shape == (40,)
        assert (estimate == original).mean() > 0.8
