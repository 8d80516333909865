"""Tests for the sequencing simulator and read pools."""

import numpy as np
import pytest

from repro.channel import (
    ErrorModel,
    FixedCoverage,
    GammaCoverage,
    ReadCluster,
    ReadPool,
    SequencingSimulator,
)
from repro.codec.basemap import random_bases


class TestReadCluster:
    def test_coverage(self):
        cluster = ReadCluster(source_index=0, reads=["ACG", "ACT"])
        assert cluster.coverage == 2

    def test_lost(self):
        assert ReadCluster(source_index=3).coverage == 0

    def test_read_indices(self):
        cluster = ReadCluster(source_index=0, reads=["ACG", "T"])
        indices = cluster.read_indices()
        assert len(indices) == 2
        np.testing.assert_array_equal(indices[0], [0, 1, 2])
        np.testing.assert_array_equal(indices[1], [3])

    def test_padded_matrix(self):
        cluster = ReadCluster(source_index=0, reads=["ACG", "T", "ACGTA"])
        matrix, lengths = cluster.padded_matrix(pad=2)
        assert matrix.shape == (3, 7)
        np.testing.assert_array_equal(lengths, [3, 1, 5])
        np.testing.assert_array_equal(matrix[1], [3, -1, -1, -1, -1, -1, -1])
        np.testing.assert_array_equal(matrix[2, :5], [0, 1, 2, 3, 0])
        assert (matrix[2, 5:] == -1).all()

    def test_padded_matrix_lost_cluster(self):
        matrix, lengths = ReadCluster(source_index=1).padded_matrix()
        assert matrix.shape == (0, 0)
        assert lengths.shape == (0,)

    def test_padded_matrix_rejects_negative_pad(self):
        with pytest.raises(ValueError):
            ReadCluster(source_index=0, reads=["ACG"]).padded_matrix(pad=-1)

    def test_batch_view_is_one_labeled_cluster(self):
        cluster = ReadCluster(source_index=4, reads=["ACG", "", "TT"])
        batch = cluster.batch_view()
        assert batch.n_clusters == 1
        assert batch.source_indices.tolist() == [4]
        assert [batch.read_string(i) for i in range(batch.n_reads)] \
            == ["ACG", "", "TT"]

    def test_array_backed_reads_decode_lazily(self):
        arrays = [np.array([0, 1, 2], dtype=np.uint8),
                  np.array([3], dtype=np.uint8)]
        cluster = ReadCluster.from_arrays(2, arrays)
        assert cluster.coverage == 2
        assert cluster.read_indices()[0] is arrays[0]
        assert cluster.reads == ["ACG", "T"]
        assert repr(cluster) == "ReadCluster(source_index=2, coverage=2)"


class TestSequencingSimulator:
    def test_one_cluster_per_strand(self, rng):
        strands = [random_bases(50, rng) for _ in range(8)]
        simulator = SequencingSimulator(ErrorModel.uniform(0.05), FixedCoverage(4))
        clusters = simulator.sequence(strands, rng)
        assert len(clusters) == 8
        assert [c.source_index for c in clusters] == list(range(8))
        assert all(c.coverage == 4 for c in clusters)

    def test_noiseless_reads_equal_strand(self, rng):
        strands = [random_bases(30, rng)]
        simulator = SequencingSimulator(ErrorModel.uniform(0.0), FixedCoverage(3))
        clusters = simulator.sequence(strands, rng)
        assert all(read == strands[0] for read in clusters[0].reads)

    def test_gamma_coverage_can_drop_strands(self, rng):
        strands = [random_bases(30, rng) for _ in range(300)]
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.0), GammaCoverage(1.2, shape=1.0)
        )
        clusters = simulator.sequence(strands, rng)
        assert any(c.coverage == 0 for c in clusters)


class TestReadPool:
    def test_nested_prefixes(self, rng):
        strands = [random_bases(40, rng) for _ in range(5)]
        pool = ReadPool(strands, ErrorModel.uniform(0.1), max_coverage=10, rng=1)
        low = pool.clusters_at(3)
        high = pool.clusters_at(7)
        for cluster_low, cluster_high in zip(low, high):
            assert cluster_high.reads[:3] == cluster_low.reads

    def test_coverage_capped_at_pool_depth(self, rng):
        strands = [random_bases(40, rng)]
        pool = ReadPool(strands, ErrorModel.uniform(0.1), max_coverage=5, rng=1)
        assert pool.clusters_at(50)[0].coverage == 5

    def test_zero_coverage(self, rng):
        strands = [random_bases(40, rng)]
        pool = ReadPool(strands, ErrorModel.uniform(0.1), max_coverage=5, rng=1)
        assert pool.clusters_at(0)[0].coverage == 0

    def test_dispersion_weights_vary_cluster_sizes(self, rng):
        strands = [random_bases(30, rng) for _ in range(200)]
        pool = ReadPool(strands, ErrorModel.uniform(0.05), max_coverage=30,
                        rng=2, dispersion_shape=2.0)
        sizes = [c.coverage for c in pool.clusters_at(10)]
        assert len(set(sizes)) > 3  # genuinely dispersed

    def test_negative_coverage_rejected(self, rng):
        pool = ReadPool([random_bases(10, rng)], ErrorModel.uniform(0.1),
                        max_coverage=2, rng=0)
        with pytest.raises(ValueError):
            pool.clusters_at(-1)

    def test_bad_construction(self, rng):
        with pytest.raises(ValueError):
            ReadPool(["ACGT"], ErrorModel.uniform(0.1), max_coverage=0)
        with pytest.raises(ValueError):
            ReadPool(["ACGT"], ErrorModel.uniform(0.1), max_coverage=3,
                     dispersion_shape=0.0)

    def test_len(self, rng):
        strands = [random_bases(10, rng) for _ in range(4)]
        pool = ReadPool(strands, ErrorModel.uniform(0.0), max_coverage=2, rng=0)
        assert len(pool) == 4
