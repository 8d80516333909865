"""Tests for the exact constrained edit-distance median search."""

import numpy as np
import pytest

from repro.channel import ErrorModel, ReadBatch
from repro.cluster.distance import edit_distance_indices
from repro.consensus import OptimalMedianReconstructor


@pytest.fixture
def median():
    return OptimalMedianReconstructor(n_alphabet=2)


def _total_cost(candidate, reads):
    return sum(edit_distance_indices(candidate, r) for r in reads)


class TestExactness:
    def test_perfect_reads(self, median):
        original = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
        result = median.search([original] * 3, 5)
        assert result.cost == 0
        assert any(np.array_equal(c, original) for c in result.candidates)

    def test_cost_matches_exhaustive_enumeration(self, median, rng):
        """Cross-check against a literal enumeration of all 2^L strings."""
        length = 8
        model = ErrorModel.uniform(0.25)
        for trial in range(5):
            original = rng.integers(0, 2, length).astype(np.uint8)
            reads = [model.apply_indices(original, rng, n_alphabet=2)
                     for _ in range(3)]
            result = median.search(reads, length)
            best = min(
                _total_cost(np.array([(v >> (length - 1 - i)) & 1
                                      for i in range(length)]), reads)
                for v in range(2**length)
            )
            assert result.cost == best

    def test_all_candidates_are_optimal(self, median, rng):
        model = ErrorModel.uniform(0.3)
        original = rng.integers(0, 2, 10).astype(np.uint8)
        reads = [model.apply_indices(original, rng, n_alphabet=2)
                 for _ in range(2)]
        result = median.search(reads, 10)
        costs = {_total_cost(c, reads) for c in result.candidates}
        assert costs == {result.cost}

    def test_candidates_are_unique(self, median, rng):
        model = ErrorModel.uniform(0.3)
        original = rng.integers(0, 2, 9).astype(np.uint8)
        reads = [model.apply_indices(original, rng, n_alphabet=2)
                 for _ in range(2)]
        result = median.search(reads, 9)
        as_tuples = {tuple(c) for c in result.candidates}
        assert len(as_tuples) == len(result.candidates)

    def test_empty_cluster(self, median):
        result = median.search([], 6)
        assert result.cost == 0
        assert result.candidates[0].shape == (6,)

    def test_reconstruct_indices_returns_length(self, median, rng):
        """A one-cluster batch's estimate is one optimum of length L."""
        reads = [rng.integers(0, 2, 7).astype(np.uint8) for _ in range(3)]
        estimates = median.reconstruct_batch(ReadBatch.from_arrays([reads]), 7)
        assert estimates.shape == (1, 7)
        assert _total_cost(estimates[0], reads) == median.search(reads, 7).cost

    def test_truncation_flag(self, rng):
        tight = OptimalMedianReconstructor(n_alphabet=2, max_candidates=1)
        model = ErrorModel.uniform(0.4)
        original = rng.integers(0, 2, 10).astype(np.uint8)
        reads = [model.apply_indices(original, rng, n_alphabet=2)]
        result = tight.search(reads, 10)
        assert len(result.candidates) == 1
        # With a single noisy read, ties are overwhelmingly likely.
        loose = OptimalMedianReconstructor(n_alphabet=2, max_candidates=4096)
        full = loose.search(reads, 10)
        if len(full.candidates) > 1:
            assert result.truncated


class TestAdversarialSelection:
    def test_returns_an_optimal_candidate(self, median, rng):
        model = ErrorModel.uniform(0.25)
        original = rng.integers(0, 2, 12).astype(np.uint8)
        reads = [model.apply_indices(original, rng, n_alphabet=2)
                 for _ in range(3)]
        adversarial = median.reconstruct_adversarial(reads, 12, original)
        result = median.search(reads, 12)
        assert _total_cost(adversarial, reads) == result.cost

    def test_prefers_middle_accuracy(self, median):
        """Among tied optima, the pick agrees with the original more in the
        middle than a pick maximizing end accuracy would."""
        original = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
        # Construct reads so that several strings are tied; the adversarial
        # pick must maximize centre-weighted agreement.
        reads = [np.array([0, 1, 0, 1, 0, 1], dtype=np.uint8),
                 np.array([1, 0, 1, 0, 1, 0], dtype=np.uint8)]
        adversarial = median.reconstruct_adversarial(reads, 6, original)
        center_agreement = (adversarial[2:4] == original[2:4]).sum()
        assert center_agreement == 2

    def test_requires_matching_length(self, median):
        with pytest.raises(ValueError):
            median.reconstruct_adversarial(
                [np.array([0, 1], dtype=np.uint8)], 2, np.array([0, 1, 1])
            )


class TestDnaAlphabet:
    def test_four_letter_search(self, rng):
        median = OptimalMedianReconstructor(n_alphabet=4)
        model = ErrorModel.uniform(0.2)
        original = rng.integers(0, 4, 7).astype(np.uint8)
        reads = [model.apply_indices(original, rng) for _ in range(4)]
        result = median.search(reads, 7)
        brute = min(
            _total_cost(np.array([(v // 4**i) % 4 for i in range(6, -1, -1)]),
                        reads)
            for v in range(4**7)
        )
        assert result.cost == brute

    def test_string_interface(self):
        median = OptimalMedianReconstructor(n_alphabet=4)
        assert median.reconstruct(["ACGT", "ACGT"], 4) == "ACGT"


class TestValidation:
    def test_bad_alphabet(self):
        with pytest.raises(ValueError):
            OptimalMedianReconstructor(n_alphabet=1)

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            OptimalMedianReconstructor(max_candidates=0)

    def test_negative_length(self, median):
        with pytest.raises(ValueError):
            median.search([np.array([0, 1], dtype=np.uint8)], -1)
