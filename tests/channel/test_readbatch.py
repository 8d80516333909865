"""Tests for the columnar ReadBatch container."""

import numpy as np
import pytest

from repro.channel import (
    ErrorModel,
    FixedCoverage,
    ReadBatch,
    SequencingSimulator,
)
from repro.channel.readbatch import packed_bases
from repro.codec.basemap import (
    bases_to_indices,
    indices_to_bases,
    random_bases,
)


def cluster_strings(batch, cluster):
    """One cluster's reads as base strings."""
    return [batch.read_string(i) for i in range(*batch.cluster_rows(cluster))]


def make_batch():
    """Three clusters: 2 reads, 0 reads (lost), 3 reads (one empty)."""
    return ReadBatch.from_strings(
        [["ACG", "TTAC"], [], ["A", "", "GGT"]],
        source_indices=[5, 6, 7],
    )


class TestConstruction:
    def test_shape_accounting(self):
        batch = make_batch()
        assert batch.n_clusters == 3
        assert batch.n_reads == 5
        assert batch.total_bases == 11
        np.testing.assert_array_equal(batch.coverage_counts(), [2, 0, 3])
        np.testing.assert_array_equal(batch.source_indices, [5, 6, 7])

    def test_read_views_share_buffer(self):
        batch = make_batch()
        view = batch.read(1)
        assert view.base is batch.buffer or view.base is batch.buffer.base
        np.testing.assert_array_equal(view, bases_to_indices("TTAC"))
        assert batch.read_string(4) == "GGT"

    def test_validation(self):
        with pytest.raises(ValueError):  # decreasing cluster ids
            ReadBatch(np.zeros(2, np.uint8), [0, 1], [1, 1], [1, 0],
                      n_clusters=2)
        with pytest.raises(ValueError):  # id outside range
            ReadBatch(np.zeros(2, np.uint8), [0, 1], [1, 1], [0, 5],
                      n_clusters=2)
        with pytest.raises(ValueError):  # misaligned per-read arrays
            ReadBatch(np.zeros(2, np.uint8), [0, 1], [1], [0, 0],
                      n_clusters=1)
        with pytest.raises(ValueError):  # source_indices wrong length
            ReadBatch(np.zeros(1, np.uint8), [0], [1], [0], n_clusters=1,
                      source_indices=[1, 2])

    @pytest.mark.parametrize("offsets,lengths,message", [
        # Repro: a read running past the buffer was accepted, and the
        # consensus scans then failed with an IndexError.
        ([0, 6], [4, 4], "offsets \\+ lengths run past"),
        # Repro: a negative length was accepted and scanned as an empty
        # read.
        ([0, 4], [4, -2], "lengths must be non-negative"),
        ([-1, 4], [1, 4], "offsets must be non-negative"),
    ])
    def test_read_outside_buffer_rejected(self, offsets, lengths, message):
        with pytest.raises(ValueError, match=message):
            ReadBatch(np.arange(8) % 4, offsets=offsets, lengths=lengths,
                      cluster_ids=[0, 0], n_clusters=1)

    @pytest.mark.parametrize("bad", [300, 256, -1])
    def test_from_arrays_rejects_symbols_past_uint8(self, bad):
        """The uint8 buffer cannot hold them; 300 used to wrap to 44."""
        with pytest.raises(ValueError, match=f"symbol {bad} outside 0..255"):
            ReadBatch.from_arrays([[np.array([bad, 1, 2])]])
        with pytest.raises(ValueError, match="outside 0..255"):
            ReadBatch.from_arrays([[[0, 1]], [[2, bad]]])

    def test_from_arrays_keeps_in_range_symbols(self):
        batch = ReadBatch.from_arrays(
            [[np.array([255, 0, 7], dtype=np.int64)], [[]]]
        )
        np.testing.assert_array_equal(batch.buffer, [255, 0, 7])
        assert batch.buffer.dtype == np.uint8
        np.testing.assert_array_equal(batch.lengths, [3, 0])


class TestSequenceProtocol:
    def test_len_counts_clusters(self):
        assert len(make_batch()) == 3
        assert len(ReadBatch.from_strings([])) == 0


class TestPaddedMatrix:
    def test_matches_reference_fill_loop(self):
        rng = np.random.default_rng(0)
        reads = [random_bases(rng.integers(1, 30), rng) for _ in range(25)]
        batch = ReadBatch.from_strings([reads])
        matrix, lengths = batch.padded_matrix(pad=3)
        arrays = [bases_to_indices(r) for r in reads]
        expected = np.full((len(arrays), max(len(a) for a in arrays) + 3),
                           -1, dtype=np.int64)
        for i, a in enumerate(arrays):
            expected[i, : len(a)] = a
        np.testing.assert_array_equal(matrix, expected)
        np.testing.assert_array_equal(lengths, [len(a) for a in arrays])

    def test_empty_batch(self):
        batch = ReadBatch.from_strings([[], []])
        matrix, lengths = batch.padded_matrix()
        assert matrix.shape == (0, 0) and lengths.shape == (0,)

    def test_all_empty_reads(self):
        batch = ReadBatch.from_strings([["", ""]])
        matrix, lengths = batch.padded_matrix(pad=2)
        assert matrix.shape == (2, 2)
        assert (matrix == -1).all()
        np.testing.assert_array_equal(lengths, [0, 0])

    def test_negative_pad_rejected(self):
        with pytest.raises(ValueError):
            make_batch().padded_matrix(pad=-1)


class TestRestructuring:
    def test_drop_lost(self):
        batch = make_batch()
        live = batch.drop_lost()
        assert live.n_clusters == 2
        np.testing.assert_array_equal(live.source_indices, [5, 7])
        np.testing.assert_array_equal(live.coverage_counts(), [2, 3])
        assert live.buffer is batch.buffer  # zero-copy
        # No lost clusters: same object comes back.
        assert live.drop_lost() is live

    def test_select_prefix_nested(self):
        batch = make_batch()
        one = batch.select_prefix(np.array([1, 1, 1]))
        np.testing.assert_array_equal(one.coverage_counts(), [1, 0, 1])
        assert cluster_strings(one, 0) == ["ACG"]
        assert cluster_strings(one, 2) == ["A"]
        two = batch.select_prefix(np.array([2, 2, 2]))
        assert cluster_strings(two, 2) == ["A", ""]
        assert two.buffer is batch.buffer

    def test_select_prefix_validation(self):
        batch = make_batch()
        with pytest.raises(ValueError):
            batch.select_prefix(np.array([1, 1]))
        with pytest.raises(ValueError):
            batch.select_prefix(np.array([-1, 0, 0]))

    def test_select_clusters(self):
        batch = make_batch()
        tail = batch.select_clusters(1, 3)
        assert tail.n_clusters == 2
        np.testing.assert_array_equal(tail.source_indices, [6, 7])
        assert cluster_strings(tail, 1) == ["A", "", "GGT"]
        assert tail.buffer is batch.buffer
        with pytest.raises(ValueError):
            batch.select_clusters(2, 5)


class TestClusterAccess:
    def test_cluster_rows(self):
        batch = make_batch()
        assert [batch.cluster_rows(c) for c in range(3)] \
            == [(0, 2), (2, 2), (2, 5)]

    @pytest.mark.parametrize("cluster", [-1, 3])
    def test_cluster_rows_out_of_range(self, cluster):
        with pytest.raises(IndexError):
            make_batch().cluster_rows(cluster)

    def test_reads_of_are_buffer_views(self):
        batch = make_batch()
        reads = batch.reads_of(0)
        assert [np.shares_memory(read, batch.buffer) for read in reads] \
            == [True, True]
        assert [indices_to_bases(read) for read in reads] == ["ACG", "TTAC"]


class TestGroupRows:
    def test_translates_cluster_bounds_to_row_bounds(self):
        batch = make_batch()
        np.testing.assert_array_equal(batch.group_rows([0, 1, 3]), [0, 2, 5])
        np.testing.assert_array_equal(batch.group_rows([0, 2, 3]), [0, 2, 5])
        np.testing.assert_array_equal(batch.group_rows([0, 3]), [0, 5])

    def test_empty_groups_allowed(self):
        np.testing.assert_array_equal(
            make_batch().group_rows([0, 0, 3, 3]), [0, 0, 5, 5]
        )

    @pytest.mark.parametrize("bad", [[], [1, 3], [0, 2], [0, 2, 1, 3],
                                     [[0, 3]]])
    def test_bad_tables_rejected(self, bad):
        with pytest.raises(ValueError, match="group boundaries"):
            make_batch().group_rows(np.array(bad))


class TestConcat:
    def test_rebases_cluster_ids_and_keeps_sources(self):
        first = make_batch()
        second = ReadBatch.from_strings([["TT"], ["C", "G"]],
                                        source_indices=[0, 1])
        joined = ReadBatch.concat([first, second])
        assert joined.n_clusters == 5
        np.testing.assert_array_equal(joined.coverage_counts(),
                                      [2, 0, 3, 1, 2])
        np.testing.assert_array_equal(joined.source_indices,
                                      [5, 6, 7, 0, 1])
        assert cluster_strings(joined, 4) == ["C", "G"]

    def test_no_batches(self):
        joined = ReadBatch.concat([])
        assert joined.n_clusters == 0 and joined.n_reads == 0


class TestPooled:
    def test_default_merges_everything_into_one_pool(self):
        batch = make_batch()
        pool = batch.pooled()
        assert pool.n_clusters == 1
        assert pool.n_reads == batch.n_reads
        assert pool.buffer is batch.buffer
        # Without an rng the read order is preserved.
        assert [pool.read_string(i) for i in range(pool.n_reads)] \
            == [batch.read_string(i) for i in range(batch.n_reads)]
        np.testing.assert_array_equal(pool.source_indices, [0])

    def test_group_boundaries_make_one_pool_per_group(self):
        batch = make_batch()
        pool = batch.pooled(np.array([0, 2, 3]))
        assert pool.n_clusters == 2
        np.testing.assert_array_equal(pool.coverage_counts(), [2, 3])

    def test_shuffle_stays_within_pools(self):
        batch = make_batch()
        pool = batch.pooled(np.array([0, 2, 3]), rng=0)
        first = {pool.read_string(i) for i in range(2)}
        assert first == {"ACG", "TTAC"}
        second = {pool.read_string(i) for i in range(2, 5)}
        assert second == {"A", "", "GGT"}

    def test_shuffle_is_deterministic(self):
        batch = make_batch()
        one = batch.pooled(rng=7)
        two = batch.pooled(rng=7)
        np.testing.assert_array_equal(one.offsets, two.offsets)

    def test_empty_batch(self):
        batch = ReadBatch.from_strings([])
        assert batch.pooled().n_clusters == 0

    def test_bad_boundaries_rejected(self):
        batch = make_batch()
        for bad in ([1, 3], [0, 2], [0, 2, 1, 3]):
            with pytest.raises(ValueError):
                batch.pooled(np.array(bad))


def gathered_concat(batches):
    """``ReadBatch.concat`` as it was before tight pieces skipped their
    gather: every piece's bases copied through an index of every base."""
    buffers, lengths, clusters, sources = [], [], [], []
    offset = 0
    for batch in batches:
        total = int(batch.lengths.sum())
        starts = np.cumsum(batch.lengths) - batch.lengths
        within = (np.arange(total, dtype=np.int64)
                  - np.repeat(starts, batch.lengths))
        buffers.append(batch.buffer[np.repeat(batch.offsets, batch.lengths)
                                    + within])
        lengths.append(batch.lengths)
        clusters.append(batch.cluster_ids + offset)
        sources.append(batch.source_indices)
        offset += batch.n_clusters
    lengths = np.concatenate(lengths)
    return ReadBatch(np.concatenate(buffers), np.cumsum(lengths) - lengths,
                     lengths, np.concatenate(clusters), n_clusters=offset,
                     source_indices=np.concatenate(sources))


def noisy_tight_batch(seed, n_strands=6, coverage=4):
    strands = [random_bases(30, np.random.default_rng(seed + i))
               for i in range(n_strands)]
    simulator = SequencingSimulator(ErrorModel.uniform(0.05),
                                    FixedCoverage(coverage))
    return simulator.sequence_batch(strands, rng=seed)


class TestPackedBases:
    def test_tight_batch_returns_its_buffer(self):
        batch = make_batch()
        assert packed_bases(batch.buffer, batch.offsets,
                            batch.lengths) is batch.buffer

    @pytest.mark.parametrize("view", [
        lambda b: b.select_prefix(np.array([1, 0, 2])),
        lambda b: b.select_clusters(1, 3),
        lambda b: b.pooled(rng=3),
        lambda b: ReadBatch(np.concatenate([[9, 9], b.buffer]),
                            b.offsets + 2, b.lengths, b.cluster_ids,
                            b.n_clusters),
    ], ids=["select_prefix", "select_clusters", "pooled", "offset_buffer"])
    def test_views_gather_their_reads_back_to_back(self, view):
        batch = view(make_batch())
        want = np.concatenate(
            [batch.read(i) for i in range(batch.n_reads)] + [[]]
        ).astype(np.uint8)
        got = packed_bases(batch.buffer, batch.offsets, batch.lengths)
        np.testing.assert_array_equal(got, want)

    def test_raw_triple_and_no_reads(self):
        buffer = np.array([0, 1, 2, 3, 0, 1], dtype=np.uint8)
        got = packed_bases(buffer, np.array([4, 0]), np.array([2, 3]))
        np.testing.assert_array_equal(got, [0, 1, 0, 1, 2])
        empty = np.zeros(0, dtype=np.int64)
        assert packed_bases(buffer, empty, empty).size == 0

    def test_concat_matches_the_gathering_concat(self):
        """Tight pieces are taken as they are, views are gathered: the
        spanning batch is the same either way."""
        tight = noisy_tight_batch(1)
        other = noisy_tight_batch(2)
        assert packed_bases(tight.buffer, tight.offsets,
                            tight.lengths) is tight.buffer
        pieces = [
            tight,
            tight.select_prefix(np.full(tight.n_clusters, 2)),
            other.select_clusters(2, 5),
            other.pooled(np.array([0, 3, 6]), rng=4),
            ReadBatch.from_strings([[], [""], ["ACGT", ""]]),
            other,
        ]
        got, want = ReadBatch.concat(pieces), gathered_concat(pieces)
        for name in ("buffer", "offsets", "lengths", "cluster_ids",
                     "source_indices"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))
        assert got.n_clusters == want.n_clusters
        assert got.buffer is not tight.buffer
