"""Tests for perfect (oracle) clustering of a labeled read pool.

The paper's perfect-clustering simulation (Section 6.1.2) regroups reads
by the strand each was drawn from. On the columnar read plane that is
``relabel_batch`` with the true source of every read as its assignment.
"""

import numpy as np
import pytest

from repro.channel.readbatch import ReadBatch
from repro.cluster.batched import relabel_batch


def perfect_clusters(tagged, n_strands):
    """Regroup ``(source, read)`` pairs into one cluster per strand."""
    pool = ReadBatch.from_strings([[read for _, read in tagged]])
    sources = np.array([source for source, _ in tagged], dtype=np.int64)
    return relabel_batch(pool, sources, n_strands)


def cluster_reads(batch, cluster):
    return [batch.read_string(i) for i in range(*batch.cluster_rows(cluster))]


class TestPerfectClusters:
    def test_groups_by_source(self):
        tagged = [(0, "AA"), (1, "CC"), (0, "AT"), (2, "GG")]
        clusters = perfect_clusters(tagged, n_strands=3)
        assert clusters.source_indices.tolist() == [0, 1, 2]
        assert cluster_reads(clusters, 0) == ["AA", "AT"]
        assert cluster_reads(clusters, 1) == ["CC"]
        assert cluster_reads(clusters, 2) == ["GG"]

    def test_missing_source_yields_empty_cluster(self):
        clusters = perfect_clusters([(0, "AA")], n_strands=2)
        assert clusters.coverage_counts().tolist() == [1, 0]
        assert cluster_reads(clusters, 1) == []

    def test_preserves_read_order(self):
        tagged = [(0, "A"), (0, "C"), (0, "G")]
        clusters = perfect_clusters(tagged, n_strands=1)
        assert cluster_reads(clusters, 0) == ["A", "C", "G"]

    def test_rejects_out_of_range_source(self):
        with pytest.raises(ValueError, match="cluster id"):
            perfect_clusters([(5, "AA")], n_strands=2)

    def test_empty_input(self):
        pool = ReadBatch.from_strings([])
        clusters = relabel_batch(pool, np.zeros(0, dtype=np.int64), 3)
        assert len(clusters) == 3
        assert clusters.coverage_counts().tolist() == [0, 0, 0]

    def test_shares_the_pool_buffer(self):
        tagged = [(1, "ACGT"), (0, "GG"), (1, "TT")]
        pool = ReadBatch.from_strings([[read for _, read in tagged]])
        clusters = relabel_batch(pool, np.array([1, 0, 1]), 2)
        assert clusters.buffer is pool.buffer
        assert cluster_reads(clusters, 1) == ["ACGT", "TT"]

    def test_source_indices_carried(self):
        pool = ReadBatch.from_strings([["AC", "GT"]])
        clusters = relabel_batch(pool, np.array([1, 0]), 2,
                                 source_indices=np.array([7, 3]))
        assert clusters.source_indices.tolist() == [7, 3]
        assert cluster_reads(clusters, 0) == ["GT"]
