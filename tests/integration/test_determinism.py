"""Determinism guarantees around the batched consensus path.

The numpy rewrite of the consensus engine must not introduce RNG- or
order-dependence anywhere: sequencing with a fixed seed is reproducible
run-to-run, batched reconstruction equals per-cluster reconstruction, and
a full unit decode is bit-identical however the clusters are fed in.
"""

import numpy as np
import pytest

from repro.channel import (
    ErrorModel,
    FixedCoverage,
    GammaCoverage,
    ReadBatch,
    SequencingSimulator,
)
from repro.codec.basemap import indices_to_bases, random_bases
from repro.consensus import (
    IterativeReconstructor,
    OneWayReconstructor,
    PosteriorReconstructor,
    TwoWayReconstructor,
)
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig

MATRIX = MatrixConfig(m=8, n_columns=40, nsym=8, payload_rows=8)


def make_clusters(seed=0, coverage=6, rate=0.08, n_strands=12, length=40):
    strands = [random_bases(length, rng=np.random.default_rng(1000 + i))
               for i in range(n_strands)]
    simulator = SequencingSimulator(
        ErrorModel.uniform(rate), FixedCoverage(coverage)
    )
    return strands, simulator.sequence(strands, rng=seed)


class TestSequencingDeterminism:
    def test_sequence_reproducible_with_seed(self):
        strands, first = make_clusters(seed=0)
        _, second = make_clusters(seed=0)
        assert [c.reads for c in first] == [c.reads for c in second]

    def test_sequence_differs_across_seeds(self):
        _, first = make_clusters(seed=0)
        _, second = make_clusters(seed=1)
        assert [c.reads for c in first] != [c.reads for c in second]

    def test_gamma_coverage_reproducible(self):
        strands = [random_bases(30, rng=np.random.default_rng(i))
                   for i in range(8)]
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.05), GammaCoverage(6, shape=4)
        )
        a = simulator.sequence(strands, rng=42)
        b = simulator.sequence(strands, rng=42)
        assert [c.reads for c in a] == [c.reads for c in b]


@pytest.mark.parametrize("reconstructor_cls", [
    OneWayReconstructor, TwoWayReconstructor, IterativeReconstructor,
    PosteriorReconstructor,
])
class TestBatchDeterminism:
    def test_batch_reproducible_run_to_run(self, reconstructor_cls):
        _, clusters = make_clusters()
        batch = ReadBatch.from_clusters(clusters)
        first = reconstructor_cls().reconstruct_batch(batch, 40)
        second = reconstructor_cls().reconstruct_batch(batch, 40)
        np.testing.assert_array_equal(first, second)

    def test_batch_equals_scalar_entry_point(self, reconstructor_cls):
        """Each row of the batch equals the one-cluster string adapter,
        ``reconstruct``, on that cluster's reads."""
        _, clusters = make_clusters()
        reconstructor = reconstructor_cls()
        batched = reconstructor.reconstruct_batch(
            ReadBatch.from_clusters(clusters), 40
        )
        for cluster, estimate in zip(clusters, batched):
            assert indices_to_bases(estimate) \
                == reconstructor.reconstruct(cluster.reads, 40)


class TestLSHClusteringDeterminism:
    """The LSH path must be as reproducible as the exact scan: fixed RNG
    substreams make same-pool-same-seed runs identical, and every sort
    key is content-derived, so shuffling the read order permutes the
    assignment without changing the partition."""

    def _pool(self, seed=11, n_strands=30, length=60):
        strands = [random_bases(length, rng=np.random.default_rng(500 + i))
                   for i in range(n_strands)]
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.05), FixedCoverage(5)
        )
        return simulator.sequence_batch(
            strands, np.random.default_rng(seed)
        ).pooled()

    def test_same_pool_same_seed_identical(self):
        from repro.cluster import LSHClusterer

        pool = self._pool()
        clusterer = LSHClusterer.for_strand_length(60)
        first, n_first = clusterer.assign(pool)
        second, n_second = clusterer.assign(pool)
        assert n_first == n_second
        np.testing.assert_array_equal(first, second)
        # A fresh instance with the same seed agrees too.
        third, _ = LSHClusterer.for_strand_length(60).assign(pool)
        np.testing.assert_array_equal(first, third)

    def test_shuffled_order_same_partition(self):
        from repro.channel.readbatch import ReadBatch
        from repro.cluster import LSHClusterer, pair_precision_recall

        pool = self._pool()
        permutation = np.random.default_rng(99).permutation(pool.n_reads)
        shuffled = ReadBatch(
            pool.buffer, pool.offsets[permutation],
            pool.lengths[permutation], pool.cluster_ids,
            n_clusters=pool.n_clusters,
        )
        clusterer = LSHClusterer.for_strand_length(60)
        original, n_original = clusterer.assign(pool)
        reordered, n_reordered = clusterer.assign(shuffled)
        assert n_original == n_reordered
        # Identical partitions modulo relabeling: aligned per read, the
        # two assignments refine each other exactly.
        assert pair_precision_recall(
            original[permutation], reordered
        ) == (1.0, 1.0)


class TestPipelineDeterminism:
    def test_decode_reproducible(self):
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=MATRIX))
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.06), FixedCoverage(8)
        )
        clusters = simulator.sequence(unit.strands, rng=7)
        first, _ = pipeline.decode(clusters, bits.size)
        second, _ = pipeline.decode(clusters, bits.size)
        np.testing.assert_array_equal(first, second)

    def test_receive_matrix_independent_of_cluster_order(self):
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=MATRIX))
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.05), FixedCoverage(6)
        )
        clusters = simulator.sequence(unit.strands, rng=3)
        forward = pipeline.receive(clusters)
        backward = pipeline.receive(list(reversed(clusters)))
        np.testing.assert_array_equal(forward.matrix, backward.matrix)
        assert forward.erased_columns == backward.erased_columns
