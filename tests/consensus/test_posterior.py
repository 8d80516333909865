"""Tests for the symbolwise posterior reconstructor."""

import numpy as np
import pytest

from repro.channel import ErrorModel, ReadBatch
from repro.codec.basemap import bases_to_indices, random_bases
from repro.consensus import TwoWayReconstructor
from repro.consensus.posterior import PosteriorReconstructor


@pytest.fixture
def reconstructor():
    return PosteriorReconstructor(channel=ErrorModel.uniform(0.08))


def _index_reads(model, strand, coverage, rng):
    return [bases_to_indices(r) for r in model.apply_many(strand, coverage, rng)]


def _trials(model, length, coverage, trials, rng):
    """``trials`` random strands, each followed by its reads, drawn in
    turn: the strands as rows, and their clusters as one batch."""
    targets, clusters = [], []
    for _ in range(trials):
        strand = random_bases(length, rng)
        targets.append(bases_to_indices(strand))
        clusters.append(_index_reads(model, strand, coverage, rng))
    return np.stack(targets), ReadBatch.from_arrays(clusters)


def _with_confidence(reconstructor, batch, length):
    """The estimates and confidences of ``batch`` as two stacked arrays."""
    results = reconstructor.reconstruct_batch_with_confidence(batch, length)
    return (np.stack([estimate for estimate, _ in results]),
            np.stack([confidence for _, confidence in results]))


class TestBasics:
    def test_identical_reads(self, reconstructor):
        strand = "ACGTTGCAACGTAC"
        assert reconstructor.reconstruct([strand] * 3, len(strand)) == strand

    def test_exact_length(self, reconstructor):
        assert len(reconstructor.reconstruct(["ACGTACG"] * 2, 12)) == 12

    def test_empty_cluster(self, reconstructor):
        assert reconstructor.reconstruct([], 5) == "AAAAA"

    def test_zero_length(self, reconstructor):
        assert reconstructor.reconstruct(["ACGT"], 0) == ""

    def test_validation(self):
        with pytest.raises(ValueError):
            PosteriorReconstructor(max_iterations=0)
        with pytest.raises(ValueError):
            PosteriorReconstructor(channel=ErrorModel.uniform(1.0))

    def test_deterministic(self, reconstructor, rng):
        strand = random_bases(80, rng)
        model = ErrorModel.uniform(0.08)
        batch = ReadBatch.from_arrays([_index_reads(model, strand, 5, rng)])
        first = reconstructor.reconstruct_batch(batch, 80)
        second = reconstructor.reconstruct_batch(batch, 80)
        np.testing.assert_array_equal(first, second)


class TestEmptyBatch:
    """The explicit empty-batch early returns of the columnar entry points."""

    def test_zero_cluster_batch(self, reconstructor):
        batch = ReadBatch.from_strings([])
        result = reconstructor.reconstruct_batch(batch, 7)
        assert result.shape == (0, 7)
        assert result.dtype == np.int64
        assert reconstructor.reconstruct_batch_with_confidence(batch, 7) == []

    def test_clusters_without_reads_fully_confident(self, reconstructor):
        batch = ReadBatch.from_strings([[], ["", ""]])
        results = reconstructor.reconstruct_batch_with_confidence(batch, 4)
        assert len(results) == 2
        for estimate, confidence in results:
            np.testing.assert_array_equal(estimate, np.zeros(4, dtype=np.int64))
            np.testing.assert_array_equal(confidence, np.ones(4))


class TestAccuracy:
    def test_competitive_with_two_way(self, rng):
        model = ErrorModel.uniform(0.08)
        posterior = PosteriorReconstructor(channel=model)
        two_way = TwoWayReconstructor()
        length = 120
        targets, batch = _trials(model, length, 6, 12, rng)
        posterior_errors = int(
            (posterior.reconstruct_batch(batch, length) != targets).sum()
        )
        two_way_errors = int(
            (two_way.reconstruct_batch(batch, length) != targets).sum()
        )
        assert posterior_errors <= two_way_errors * 1.15

    def test_substitution_only_nearly_perfect(self, rng):
        model = ErrorModel.substitutions_only(0.12)
        reconstructor = PosteriorReconstructor(channel=model)
        length = 100
        targets, batch = _trials(model, length, 5, 10, rng)
        total = int(
            (reconstructor.reconstruct_batch(batch, length) != targets).sum()
        )
        assert total <= 5


class TestConfidence:
    def test_shape_and_range(self, reconstructor, rng):
        strand = random_bases(60, rng)
        batch = ReadBatch.from_arrays(
            [_index_reads(ErrorModel.uniform(0.08), strand, 4, rng)]
        )
        _, (confidence,) = _with_confidence(reconstructor, batch, 60)
        assert confidence.shape == (60,)
        assert (confidence > 0).all() and (confidence <= 1.0 + 1e-9).all()

    def test_clean_cluster_fully_confident(self, reconstructor):
        strand = "ACGTACGTACGTACGT"
        batch = ReadBatch.from_strings([[strand] * 4])
        _, confidence = _with_confidence(reconstructor, batch, len(strand))
        assert confidence.min() > 0.95

    def test_wrong_positions_less_confident(self, rng):
        """Aggregate correlation: error positions carry lower confidence."""
        model = ErrorModel.uniform(0.10)
        reconstructor = PosteriorReconstructor(channel=model)
        length = 120
        targets, batch = _trials(model, length, 5, 25, rng)
        estimates, confidence = _with_confidence(reconstructor, batch, length)
        wrong = estimates != targets
        assert confidence[wrong].mean() < confidence[~wrong].mean()

    def test_confidence_dips_mid_strand(self, rng):
        """The skew, seen through posterior mass: middle < ends."""
        model = ErrorModel.uniform(0.10)
        reconstructor = PosteriorReconstructor(channel=model)
        length = 120
        _, batch = _trials(model, length, 5, 25, rng)
        _, confidence = _with_confidence(reconstructor, batch, length)
        profile = confidence.mean(axis=0)
        edges = np.concatenate([profile[:15], profile[-15:]]).mean()
        middle = profile[45:75].mean()
        assert middle < edges
