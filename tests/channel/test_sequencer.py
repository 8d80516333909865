"""Tests for the sequencing simulator and read pools."""

import numpy as np
import pytest

from repro.channel import (
    ErrorModel,
    FixedCoverage,
    GammaCoverage,
    ReadBatch,
    ReadPool,
    SequencingSimulator,
)
from repro.codec.basemap import random_bases


def cluster_strings(batch, cluster):
    """One cluster's reads as base strings."""
    return [batch.read_string(i) for i in range(*batch.cluster_rows(cluster))]


class TestReadBatchEdges:
    def test_from_strings_keeps_source_and_empty_reads(self):
        batch = ReadBatch.from_strings([["ACG", "", "TT"]],
                                       source_indices=[4])
        assert batch.n_clusters == 1
        assert batch.source_indices.tolist() == [4]
        assert cluster_strings(batch, 0) == ["ACG", "", "TT"]

    def test_from_arrays_copies_its_reads(self):
        arrays = [np.array([0, 1, 2], dtype=np.uint8),
                  np.array([3], dtype=np.uint8)]
        batch = ReadBatch.from_arrays([arrays], source_indices=[2])
        arrays[0][:] = 3
        np.testing.assert_array_equal(batch.coverage_counts(), [2])
        assert cluster_strings(batch, 0) == ["ACG", "T"]
        assert not any(np.shares_memory(a, batch.buffer) for a in arrays)


class TestSequencingSimulator:
    def test_one_cluster_per_strand(self, rng):
        strands = [random_bases(50, rng) for _ in range(8)]
        simulator = SequencingSimulator(ErrorModel.uniform(0.05), FixedCoverage(4))
        batch = simulator.sequence_batch(strands, rng)
        assert batch.n_clusters == 8
        assert batch.source_indices.tolist() == list(range(8))
        assert (batch.coverage_counts() == 4).all()

    def test_noiseless_reads_equal_strand(self, rng):
        strands = [random_bases(30, rng)]
        simulator = SequencingSimulator(ErrorModel.uniform(0.0), FixedCoverage(3))
        batch = simulator.sequence_batch(strands, rng)
        assert cluster_strings(batch, 0) == [strands[0]] * 3

    def test_gamma_coverage_can_drop_strands(self, rng):
        strands = [random_bases(30, rng) for _ in range(300)]
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.0), GammaCoverage(1.2, shape=1.0)
        )
        batch = simulator.sequence_batch(strands, rng)
        assert (batch.coverage_counts() == 0).any()


class TestReadPool:
    def test_nested_prefixes(self, rng):
        strands = [random_bases(40, rng) for _ in range(5)]
        pool = ReadPool(strands, ErrorModel.uniform(0.1), max_coverage=10, rng=1)
        low = pool.batch_at(3)
        high = pool.batch_at(7)
        for c in range(len(strands)):
            assert cluster_strings(high, c)[:3] == cluster_strings(low, c)

    def test_coverage_capped_at_pool_depth(self, rng):
        strands = [random_bases(40, rng)]
        pool = ReadPool(strands, ErrorModel.uniform(0.1), max_coverage=5, rng=1)
        np.testing.assert_array_equal(pool.batch_at(50).coverage_counts(), [5])

    def test_zero_coverage(self, rng):
        strands = [random_bases(40, rng)]
        pool = ReadPool(strands, ErrorModel.uniform(0.1), max_coverage=5, rng=1)
        batch = pool.batch_at(0)
        assert batch.n_clusters == 1
        np.testing.assert_array_equal(batch.coverage_counts(), [0])

    def test_dispersion_weights_vary_cluster_sizes(self, rng):
        strands = [random_bases(30, rng) for _ in range(200)]
        pool = ReadPool(strands, ErrorModel.uniform(0.05), max_coverage=30,
                        rng=2, dispersion_shape=2.0)
        sizes = pool.batch_at(10).coverage_counts()
        assert len(set(sizes.tolist())) > 3  # genuinely dispersed

    def test_negative_coverage_rejected(self, rng):
        pool = ReadPool([random_bases(10, rng)], ErrorModel.uniform(0.1),
                        max_coverage=2, rng=0)
        with pytest.raises(ValueError):
            pool.batch_at(-1)

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
