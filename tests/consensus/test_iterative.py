"""Tests for the iterative realign-and-vote reconstructor."""

import numpy as np
import pytest

from repro.channel import ErrorModel
from repro.codec.basemap import random_bases
from repro.consensus import IterativeReconstructor, TwoWayReconstructor
from repro.consensus.iterative import IterativeReconstructor as _Impl


@pytest.fixture
def reconstructor():
    return IterativeReconstructor()


class TestBasics:
    def test_identical_reads(self, reconstructor):
        strand = "ACGTTGCAACGT"
        assert reconstructor.reconstruct([strand] * 3, len(strand)) == strand

    def test_exact_length(self, reconstructor):
        assert len(reconstructor.reconstruct(["ACGTACG"] * 2, 12)) == 12

    def test_empty_cluster(self, reconstructor):
        assert reconstructor.reconstruct([], 5) == "AAAAA"

    def test_zero_length(self, reconstructor):
        assert reconstructor.reconstruct(["ACGT"], 0) == ""

    def test_rejects_bad_iteration_count(self):
        with pytest.raises(ValueError):
            IterativeReconstructor(max_iterations=0)

    def test_deterministic(self, reconstructor, rng):
        strand = random_bases(70, rng)
        reads = ErrorModel.uniform(0.1).apply_many(strand, 6, rng)
        assert (reconstructor.reconstruct(reads, 70)
                == reconstructor.reconstruct(reads, 70))


class TestEmptyBatch:
    """The explicit empty-batch early returns of ``reconstruct_batch``."""

    def test_zero_cluster_batch(self, reconstructor):
        from repro.channel import ReadBatch

        result = reconstructor.reconstruct_batch(ReadBatch.from_strings([]), 8)
        assert result.shape == (0, 8)
        assert result.dtype == np.int64

    def test_zero_cluster_batch_zero_length(self, reconstructor):
        from repro.channel import ReadBatch

        result = reconstructor.reconstruct_batch(ReadBatch.from_strings([]), 0)
        assert result.shape == (0, 0)

    def test_clusters_without_reads_keep_seed(self, reconstructor):
        from repro.channel import ReadBatch

        batch = ReadBatch.from_strings([[], []])
        result = reconstructor.reconstruct_batch(batch, 5)
        np.testing.assert_array_equal(result, np.zeros((2, 5), dtype=np.int64))


def _edit_matrix(a, b):
    """The DP matrix of one (estimate ``a``, read ``b``) pair: the
    one-pair stack of the refinement's DP sweep."""
    return _Impl._edit_matrix_stack(np.asarray(a)[None, :],
                                    np.asarray(b)[None, :])[0]


class TestEditMatrix:
    def test_matches_levenshtein(self, rng):
        from repro.cluster.distance import edit_distance_indices
        for _ in range(20):
            a = rng.integers(0, 4, rng.integers(0, 25))
            b = rng.integers(0, 4, rng.integers(0, 25))
            matrix = _edit_matrix(a, b)
            assert matrix[len(a), len(b)] == edit_distance_indices(a, b)

    def test_boundary_rows(self):
        matrix = _edit_matrix(np.array([0, 1]), np.array([1]))
        np.testing.assert_array_equal(matrix[0], [0, 1])
        np.testing.assert_array_equal(matrix[:, 0], [0, 1, 2])


class TestQuality:
    def test_not_worse_than_two_way_on_average(self, rng):
        iterative = IterativeReconstructor()
        two_way = TwoWayReconstructor()
        model = ErrorModel.uniform(0.10)
        length = 100
        iterative_errors = 0
        two_way_errors = 0
        for _ in range(30):
            strand = random_bases(length, rng)
            reads = model.apply_many(strand, 6, rng)
            iterative_errors += sum(
                a != b
                for a, b in zip(iterative.reconstruct(reads, length), strand)
            )
            two_way_errors += sum(
                a != b
                for a, b in zip(two_way.reconstruct(reads, length), strand)
            )
        assert iterative_errors <= two_way_errors * 1.05

    def test_skew_persists(self, rng):
        """The Figure 5 claim: a stronger reconstructor still shows skew."""
        reconstructor = IterativeReconstructor()
        model = ErrorModel.uniform(0.10)
        length = 120
        errors = np.zeros(length)
        for _ in range(60):
            strand = random_bases(length, rng)
            reads = model.apply_many(strand, 5, rng)
            estimate = reconstructor.reconstruct(reads, length)
            errors += [a != b for a, b in zip(estimate, strand)]
        edges = np.concatenate([errors[:15], errors[-15:]]).mean()
        middle = errors[length // 2 - 15: length // 2 + 15].mean()
        assert middle > 1.5 * edges

    def test_substitution_only_is_easy(self, rng):
        """Paired with two-way on identical reads: refinement never hurts,
        and the overall substitution-only error rate stays small."""
        iterative = IterativeReconstructor()
        two_way = TwoWayReconstructor()
        model = ErrorModel.substitutions_only(0.10)
        length = 100
        iterative_total = 0
        two_way_total = 0
        for _ in range(20):
            strand = random_bases(length, rng)
            reads = model.apply_many(strand, 5, rng)
            iterative_total += sum(
                a != b
                for a, b in zip(iterative.reconstruct(reads, length), strand)
            )
            two_way_total += sum(
                a != b
                for a, b in zip(two_way.reconstruct(reads, length), strand)
            )
        assert iterative_total <= two_way_total
        assert iterative_total / (20 * length) < 0.025
