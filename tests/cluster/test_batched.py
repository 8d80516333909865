"""Differential suite: BatchedGreedyClusterer == the frozen string-plane
greedy scan (identical cluster assignments), plus batch-plumbing
behaviour the string path has no counterpart for."""

import numpy as np
import pytest

from repro.channel import (
    ErrorModel,
    FixedCoverage,
    GammaCoverage,
    SequencingSimulator,
)
from repro.channel.readbatch import ReadBatch
from oracles.cluster import ReferenceGreedyClusterer
from repro.cluster import BatchedGreedyClusterer
from repro.codec.basemap import random_bases


def pool_of(strands, rng, error=0.06, coverage=FixedCoverage(6), model=None):
    """An unlabeled, shuffled read pool over the given strands."""
    simulator = SequencingSimulator(
        model or ErrorModel.uniform(error), coverage
    )
    return simulator.sequence_batch(strands, rng).pooled(rng=rng)


def clusters_as_strings(batch):
    """The recovered clusters of a re-labeled batch, as string lists."""
    return [
        [batch.read_string(i) for i in range(*batch.cluster_rows(c))]
        for c in range(batch.n_clusters)
    ]


def assert_same_clustering(batch, labeled, clusterer_args):
    """The batched clusterer must reproduce the frozen string-plane scan."""
    reads = [batch.read_string(i) for i in range(batch.n_reads)]
    want = ReferenceGreedyClusterer(*clusterer_args).cluster(reads)
    assert clusters_as_strings(labeled) == [c.reads for c in want]
    assert [int(s) for s in labeled.source_indices] \
        == [c.source_index for c in want]


class TestDifferential:
    @pytest.mark.parametrize("threshold,qgram", [
        (12, 3), (12, 0), (12, 1), (5, 3), (0, 3), (30, 4),
    ])
    def test_randomized_pool_matches_reference(self, rng, threshold, qgram):
        strands = [random_bases(50, rng) for _ in range(15)]
        batch = pool_of(strands, rng)
        labeled = BatchedGreedyClusterer(threshold, qgram).cluster_batch(batch)
        assert_same_clustering(batch, labeled, (threshold, qgram))

    @pytest.mark.slow
    def test_larger_noisier_pool_matches_reference(self, rng):
        strands = [random_bases(68, rng) for _ in range(40)]
        batch = pool_of(strands, rng, error=0.1,
                        coverage=GammaCoverage(6, shape=4))
        labeled = BatchedGreedyClusterer(17).cluster_batch(batch)
        assert_same_clustering(batch, labeled, (17,))

    def test_deletion_heavy_pool_matches_reference(self, rng):
        model = ErrorModel(p_insertion=0.01, p_deletion=0.08,
                           p_substitution=0.02)
        strands = [random_bases(60, rng) for _ in range(12)]
        batch = pool_of(strands, rng, model=model)
        labeled = BatchedGreedyClusterer(15).cluster_batch(batch)
        assert_same_clustering(batch, labeled, (15,))

    def test_variable_length_reads_match_reference(self, rng):
        """Mixed designed lengths exercise the length-gap prefilter and
        the sentinel-padded kernels."""
        strands = [random_bases(int(n), rng)
                   for n in rng.integers(5, 60, size=12)]
        batch = pool_of(strands, rng)
        labeled = BatchedGreedyClusterer(10).cluster_batch(batch)
        assert_same_clustering(batch, labeled, (10,))

    def test_reads_shorter_than_qgram_match_reference(self, rng):
        reads = ["AC", "A", "", "ACGT", "ACGA", "AC"]
        batch = ReadBatch.from_strings([[r] for r in reads]).pooled()
        labeled = BatchedGreedyClusterer(2, qgram_size=3).cluster_batch(batch)
        assert_same_clustering(batch, labeled, (2, 3))


class TestEdgeCases:
    def test_empty_pool(self):
        batch = ReadBatch.from_strings([])
        labeled = BatchedGreedyClusterer(3).cluster_batch(batch)
        assert labeled.n_clusters == 0 and labeled.n_reads == 0

    def test_single_read(self):
        batch = ReadBatch.from_strings([["ACGT"]])
        labeled = BatchedGreedyClusterer(3).cluster_batch(batch)
        assert labeled.n_clusters == 1
        assert clusters_as_strings(labeled) == [["ACGT"]]

    def test_all_identical_reads_one_cluster(self):
        batch = ReadBatch.from_strings([["ACGTACGT"] * 7]).pooled()
        labeled = BatchedGreedyClusterer(0).cluster_batch(batch)
        assert labeled.n_clusters == 1
        assert labeled.coverage_counts()[0] == 7

    def test_all_distant_reads_singleton_clusters(self):
        reads = ["AAAAAAAA", "TTTTTTTT", "GGGGGGGG", "CCCCCCCC"]
        batch = ReadBatch.from_strings([[r] for r in reads]).pooled()
        labeled = BatchedGreedyClusterer(2).cluster_batch(batch)
        assert labeled.n_clusters == 4
        assert clusters_as_strings(labeled) == [[r] for r in reads]

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchedGreedyClusterer(-1)
        with pytest.raises(ValueError):
            BatchedGreedyClusterer(1, qgram_size=-2)

    def test_assign_returns_read_order_ids(self, rng):
        strands = [random_bases(30, rng) for _ in range(5)]
        batch = pool_of(strands, rng, error=0.02)
        clusterer = BatchedGreedyClusterer(8)
        assignment, n_clusters = clusterer.assign(batch)
        assert assignment.shape == (batch.n_reads,)
        assert int(assignment.max()) + 1 == n_clusters
        # First occurrences of each id appear in increasing id order
        # (clusters are numbered by creation).
        _, first = np.unique(assignment, return_index=True)
        assert np.all(np.diff(first[np.argsort(first)]) > 0)
        # Relabeling is exactly a stable regroup of the assignment.
        labeled = clusterer.cluster_batch(batch)
        order = np.argsort(assignment, kind="stable")
        np.testing.assert_array_equal(
            labeled.cluster_ids, assignment[order]
        )

    def test_result_shares_buffer_zero_copy(self, rng):
        strands = [random_bases(30, rng) for _ in range(5)]
        batch = pool_of(strands, rng)
        labeled = BatchedGreedyClusterer(8).cluster_batch(batch)
        assert labeled.buffer is batch.buffer


class TestClusterPools:
    def test_pools_cluster_independently(self, rng):
        """The same strand set in two pools must never merge across the
        pool border, and per-pool results equal clustering each pool
        alone."""
        strands = [random_bases(40, rng) for _ in range(6)]
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.04), FixedCoverage(4)
        )
        unit_a = simulator.sequence_batch(strands, rng)
        unit_b = simulator.sequence_batch(strands, rng)
        pool = ReadBatch.concat([unit_a.pooled(rng=rng),
                                 unit_b.pooled(rng=rng)])
        clusterer = BatchedGreedyClusterer(10)
        labeled, boundaries = clusterer.cluster_pools(pool)
        assert boundaries[0] == 0 and boundaries[-1] == labeled.n_clusters
        for p in range(2):
            alone = clusterer.cluster_batch(
                pool.select_clusters(p, p + 1)
            )
            piece = labeled.select_clusters(
                int(boundaries[p]), int(boundaries[p + 1])
            )
            assert clusters_as_strings(piece) == clusters_as_strings(alone)

    def test_grouped_boundaries(self, rng):
        """Explicit pool boundaries group several input clusters into one
        pool (e.g. a labeled spanning batch plus its unit table)."""
        strands = [random_bases(40, rng) for _ in range(4)]
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.04), FixedCoverage(3)
        )
        batch = simulator.sequence_batch(strands, rng)
        clusterer = BatchedGreedyClusterer(10)
        grouped, boundaries = clusterer.cluster_pools(
            batch, pool_boundaries=np.array([0, 2, 4])
        )
        # Two pools of two strands each -> the labeled clusters of pool 0
        # hold exactly the reads of input clusters 0-1.
        first_pool = grouped.select_clusters(0, int(boundaries[1]))
        want = sorted(
            batch.read_string(i)
            for i in range(*batch.cluster_rows(0))
        ) + sorted(
            batch.read_string(i)
            for i in range(*batch.cluster_rows(1))
        )
        got = sorted(
            first_pool.read_string(i) for i in range(first_pool.n_reads)
        )
        assert got == sorted(want)

    def test_empty_pool_yields_zero_clusters(self):
        batch = ReadBatch.from_strings([[], ["ACGT", "ACGT"]])
        labeled, boundaries = BatchedGreedyClusterer(2).cluster_pools(batch)
        assert list(boundaries) == [0, 0, 1]
        assert labeled.n_clusters == 1

    def test_bad_boundaries_rejected(self, rng):
        batch = ReadBatch.from_strings([["ACGT"], ["ACGA"]])
        clusterer = BatchedGreedyClusterer(2)
        for bad in ([1, 2], [0, 1], [0, 2, 1, 2]):
            with pytest.raises(ValueError):
                clusterer.cluster_pools(
                    batch, pool_boundaries=np.array(bad)
                )
