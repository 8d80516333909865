"""LSHClusterer contract: constructor validation, edge cases, counters,
and the batch/pool surfaces shared with BatchedGreedyClusterer.

Recovery quality across channels lives in test_recovery.py (the suite is
parametrized over both clusterers); determinism under read-order
shuffles lives in tests/integration/test_determinism.py. Here: the
plumbing.
"""

import numpy as np
import pytest

from repro.channel import ErrorModel, FixedCoverage, SequencingSimulator
from repro.channel.readbatch import ReadBatch
from repro.cluster import (
    BatchedGreedyClusterer,
    LSHClusterer,
    pair_precision_recall,
)
from repro.codec.basemap import random_bases
from repro.observability import Tracer, use_tracer

from tests.cluster.test_batched import clusters_as_strings, pool_of


class TestValidation:
    def test_bad_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            LSHClusterer(threshold=-1)

    def test_bad_q(self):
        with pytest.raises(ValueError, match="q"):
            LSHClusterer(threshold=3, q=0)

    def test_bad_n_bands(self):
        with pytest.raises(ValueError, match="n_bands"):
            LSHClusterer(threshold=3, n_bands=0)

    def test_bad_rows_per_band(self):
        with pytest.raises(ValueError, match="rows_per_band"):
            LSHClusterer(threshold=3, rows_per_band=0)

    def test_bad_n_rescue_bands(self):
        with pytest.raises(ValueError, match="n_rescue_bands"):
            LSHClusterer(threshold=3, n_rescue_bands=-1)

    def test_bad_min_sketch_matches(self):
        with pytest.raises(ValueError, match="min_sketch_matches"):
            LSHClusterer(threshold=3, min_sketch_matches=-1)
        with pytest.raises(ValueError, match="min_sketch_matches"):
            # More matches than minhash rows exist can never be met.
            LSHClusterer(threshold=3, n_bands=2, rows_per_band=2,
                         n_rescue_bands=1, min_sketch_matches=6)

    def test_for_strand_length_quarter_rule(self):
        assert LSHClusterer.for_strand_length(68).threshold == 17
        assert LSHClusterer.for_strand_length(4).threshold == 2
        greedy = BatchedGreedyClusterer.for_strand_length(68)
        assert LSHClusterer.for_strand_length(68).threshold \
            == greedy.threshold


class TestEdgeCases:
    def test_empty_pool(self):
        batch = ReadBatch.from_strings([])
        labeled = LSHClusterer(3).cluster_batch(batch)
        assert labeled.n_clusters == 0 and labeled.n_reads == 0

    def test_single_read(self):
        batch = ReadBatch.from_strings([["ACGTACGTACGT"]])
        labeled = LSHClusterer(3).cluster_batch(batch)
        assert labeled.n_clusters == 1
        assert clusters_as_strings(labeled) == [["ACGTACGTACGT"]]

    def test_all_identical_reads_one_cluster(self):
        batch = ReadBatch.from_strings([["ACGTACGT"] * 7]).pooled()
        labeled = LSHClusterer(0).cluster_batch(batch)
        assert labeled.n_clusters == 1
        assert labeled.coverage_counts()[0] == 7

    def test_all_distant_reads_singleton_clusters(self):
        reads = ["AAAAAAAA", "TTTTTTTT", "GGGGGGGG", "CCCCCCCC"]
        batch = ReadBatch.from_strings([[r] for r in reads]).pooled()
        labeled = LSHClusterer(2).cluster_batch(batch)
        assert labeled.n_clusters == 4

    def test_reads_shorter_than_q_verify_exactly(self):
        """Reads with no q-grams share one sentinel bin per band and
        still go through the exact DP — identical shorts merge, distant
        shorts stay apart."""
        batch = ReadBatch.from_strings(
            [["ACGT", "ACGT", "ACGT", "TTTT"]]
        ).pooled()
        labeled = LSHClusterer(0, q=8).cluster_batch(batch)
        assert labeled.n_clusters == 2
        assert sorted(len(c) for c in clusters_as_strings(labeled)) \
            == [1, 3]

    def test_sketch_filter_can_be_disabled(self, rng):
        strands = [random_bases(40, rng) for _ in range(6)]
        batch = pool_of(strands, rng, error=0.03, coverage=FixedCoverage(4))
        strict = LSHClusterer.for_strand_length(40)
        relaxed = LSHClusterer.for_strand_length(40, min_sketch_matches=0)
        a, n_a = strict.assign(batch)
        b, n_b = relaxed.assign(batch)
        # Disabling the screen only adds DP-verified merges, never
        # removes them; on this easy pool both find the same partition.
        assert n_a == n_b
        assert pair_precision_recall(a, b) == (1.0, 1.0)


class TestRecoverySmoke:
    def test_easy_pool_fully_recovered(self, rng):
        strands = [random_bases(50, rng) for _ in range(12)]
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.03), FixedCoverage(4)
        )
        labeled = simulator.sequence_batch(strands, rng)
        permutation = rng.permutation(labeled.n_reads)
        pool = labeled.pooled()
        pool = type(pool)(
            pool.buffer, pool.offsets[permutation],
            pool.lengths[permutation], pool.cluster_ids,
            n_clusters=pool.n_clusters,
        )
        assignment, n_clusters = LSHClusterer.for_strand_length(50) \
            .assign(pool)
        precision, recall = pair_precision_recall(
            labeled.cluster_ids[permutation], assignment
        )
        assert precision == 1.0 and recall == 1.0
        assert n_clusters == len(strands)


class TestCounters:
    def test_counters_emitted_under_tracer(self, rng):
        strands = [random_bases(40, rng) for _ in range(8)]
        batch = pool_of(strands, rng, coverage=FixedCoverage(4))
        tracer = Tracer()
        with use_tracer(tracer):
            LSHClusterer.for_strand_length(40).cluster_batch(batch)
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["cluster.reads_in"] == batch.n_reads
        assert counters["cluster.lsh.bins"] > 0
        assert counters["cluster.lsh.candidate_pairs"] \
            >= counters["cluster.lsh.verified_pairs"] > 0
        # The counters live under the same span the greedy path uses.
        assert [root.name for root in tracer.roots] == ["cluster.batch"]

    def test_no_tracer_no_overhead_path(self, rng):
        strands = [random_bases(40, rng) for _ in range(4)]
        batch = pool_of(strands, rng, coverage=FixedCoverage(3))
        labeled = LSHClusterer.for_strand_length(40).cluster_batch(batch)
        assert labeled.n_reads == batch.n_reads


class TestRankSorts:
    """Banding sorts packed int64 keys of per-batch ranks; the order must
    be the ``np.lexsort`` order of the raw 64-bit values."""

    def test_dense_ranks_keep_order_and_ties(self, rng):
        from repro.cluster.lsh import _dense_ranks

        values = rng.integers(0, 2 ** 64, (3, 400), dtype=np.uint64)
        values[:, 1::2] = values[:, ::2]  # every value twice
        ranks = _dense_ranks(values)
        for row, rank in zip(values, ranks):
            np.testing.assert_array_equal(np.argsort(rank, kind="stable"),
                                          np.argsort(row, kind="stable"))
            assert np.unique(rank).size == np.unique(row).size \
                == rank.max() + 1

    @pytest.mark.parametrize("radix", [9, 1 << 20])
    def test_lex_order_matches_lexsort(self, rng, radix):
        """Radix 2**20 packs at most three of the five columns per key,
        so the order is refined over several stable passes."""
        from repro.cluster.lsh import _lex_order

        columns = [rng.integers(0, 9, 600) * (radix // 9) for _ in range(5)]
        np.testing.assert_array_equal(_lex_order(columns, radix),
                                      np.lexsort(columns[::-1]))


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
        clusterer = LSHClusterer.for_strand_length(40)
        labeled, boundaries = clusterer.cluster_pools(pool)
        assert boundaries[0] == 0 and boundaries[-1] == labeled.n_clusters
        for p in range(2):
            alone = clusterer.cluster_batch(pool.select_clusters(p, p + 1))
            piece = labeled.select_clusters(
                int(boundaries[p]), int(boundaries[p + 1])
            )
            assert clusters_as_strings(piece) == clusters_as_strings(alone)

    def test_grouped_boundaries(self, rng):
        strands = [random_bases(40, rng) for _ in range(4)]
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.04), FixedCoverage(3)
        )
        batch = simulator.sequence_batch(strands, rng)
        grouped, boundaries = LSHClusterer.for_strand_length(40) \
            .cluster_pools(batch, pool_boundaries=np.array([0, 2, 4]))
        first_pool = grouped.select_clusters(0, int(boundaries[1]))
        want = sorted(
            batch.read_string(i) for i in range(*batch.cluster_rows(0))
        ) + sorted(
            batch.read_string(i) for i in range(*batch.cluster_rows(1))
        )
        got = sorted(
            first_pool.read_string(i) for i in range(first_pool.n_reads)
        )
        assert got == sorted(want)

    def test_empty_pool_yields_zero_clusters(self):
        batch = ReadBatch.from_strings([[], ["ACGTACGT", "ACGTACGT"]])
        labeled, boundaries = LSHClusterer(2).cluster_pools(batch)
        assert list(boundaries) == [0, 0, 1]
        assert labeled.n_clusters == 1

    def test_bad_boundaries_rejected(self):
        batch = ReadBatch.from_strings([["ACGT"], ["ACGA"]])
        clusterer = LSHClusterer(2)
        for bad in ([1, 2], [0, 1], [0, 2, 1, 2]):
            with pytest.raises(ValueError):
                clusterer.cluster_pools(
                    batch, pool_boundaries=np.array(bad)
                )
