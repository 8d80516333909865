"""The pointer scans run one weighted row per distinct (cluster, read).

``OneWayReconstructor._read_matrix`` keeps one row for every group of
reads that are equal in content and cluster, with the group's size as
the row's weight, and ``scan_padded`` casts a row's votes and ballots
that many times. These tests pin the grouping (row counts and weights
against ``collections.Counter``, exact merging under forced key
collisions, tight and non-tight batches alike) and the algorithmic fact
it rests on: repeating every read k times scales every vote and ballot
by k, so it never changes an estimate.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus.test_batch_entrypoint import (
    ALL_EMPTY,
    LOST,
    NOISY,
    NOISY_WITH_EMPTY,
    mixed_batch,
)
from oracles.consensus import (
    ReferenceOneWayReconstructor,
    ReferenceTwoWayReconstructor,
)
from repro.channel import ReadBatch
from repro.consensus import OneWayReconstructor, TwoWayReconstructor

EMPTY = np.zeros(0, dtype=np.uint8)


def draw_clusters(seed, kinds, length, rate, n_alphabet):
    """The batching property's mixed clusters (lost, all-empty, 1-5
    noisy reads with or without an empty one) as per-cluster lists."""
    batch = mixed_batch(seed, kinds, length, rate, n_alphabet)
    return [batch.reads_of(c) for c in range(batch.n_clusters)]


def duplicated(clusters, copies, seed):
    """Every read repeated ``copies`` times, the copies shuffled
    anywhere within the read's own cluster."""
    rng = np.random.default_rng(seed)
    out = []
    for reads in clusters:
        repeated = [read for read in reads for _ in range(copies)]
        out.append([repeated[i] for i in rng.permutation(len(repeated))])
    return out


def distinct_counts(clusters):
    """Multiplicity of every distinct non-empty (cluster, read)."""
    return Counter(
        (c, bytes(np.asarray(read, dtype=np.uint8)))
        for c, reads in enumerate(clusters) for read in reads if len(read)
    )


def forward_rows(reconstructor, batch, length):
    """``_read_matrix``'s forward rows as ``(cluster, read bytes) ->
    summed weight``, plus the row count and the weights."""
    matrix, cluster_of, weights = reconstructor._read_matrix(batch, length)
    counted = Counter()
    for row, cluster, weight in zip(
        matrix, cluster_of,
        np.ones(len(matrix), np.int64) if weights is None else weights,
    ):
        read = row[row >= 0].astype(np.uint8).tobytes()
        counted[(int(cluster), read)] += int(weight)
    return counted, matrix.shape[0], weights


@pytest.mark.parametrize("engine_cls,reference_cls", [
    (OneWayReconstructor, ReferenceOneWayReconstructor),
    (TwoWayReconstructor, ReferenceTwoWayReconstructor),
])
class TestDuplicationInvariance:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(st.integers(LOST, NOISY_WITH_EMPTY), min_size=1,
                       max_size=6),
        rate=st.floats(0.0, 0.05),
        lookahead=st.integers(1, 6),
        binary=st.booleans(),
        copies=st.integers(1, 4),
        length=st.integers(0, 40),
    )
    def test_repeating_every_read_changes_nothing(
        self, engine_cls, reference_cls, seed, kinds, rate, lookahead,
        binary, copies, length,
    ):
        """Uniform duplication scales every vote and ballot by k, so the
        scan's estimates cannot move, wherever the copies land. The
        frozen oracle scans every copy on its own, so it also pins how
        the weighted rows vote and fill ballots."""
        n_alphabet = 2 if binary else 4
        engine = engine_cls(lookahead=lookahead, n_alphabet=n_alphabet)
        clusters = draw_clusters(seed, kinds, length, rate, n_alphabet)
        repeated = duplicated(clusters, copies, seed)
        once = engine.reconstruct_batch(ReadBatch.from_arrays(clusters),
                                        length)
        estimates = engine.reconstruct_batch(
            ReadBatch.from_arrays(repeated), length
        )
        np.testing.assert_array_equal(estimates, once)
        reference = reference_cls(lookahead=lookahead,
                                  n_alphabet=n_alphabet)
        for reads, estimate in zip(repeated, estimates):
            np.testing.assert_array_equal(
                estimate, reference.reconstruct_indices(reads, length)
            )


def test_ballots_count_every_copy():
    """A cluster where the lookahead ballot is decided by how many
    copies a row stands for: the copied read outvotes the distinct one
    only when its row's weight fills the ballot, as the oracle's
    per-copy scan does."""
    reads = [np.array(read, dtype=np.uint8) for read in
             ([2, 3, 1, 1], [3, 1, 1], [2, 3, 1, 1], [2, 1, 1])]
    batch = ReadBatch.from_arrays([reads])
    assert OneWayReconstructor()._read_matrix(batch, 4)[2] is not None
    np.testing.assert_array_equal(
        OneWayReconstructor().reconstruct_batch(batch, 4)[0],
        ReferenceOneWayReconstructor().reconstruct_indices(reads, 4),
    )


class TestRowCounts:
    def test_one_row_per_distinct_cluster_read(self):
        clusters = duplicated(
            draw_clusters(3, [NOISY] * 8 + [NOISY_WITH_EMPTY, LOST,
                                            ALL_EMPTY], 24, 0.02, 4),
            3, seed=4,
        )
        # The same read in two clusters stays two rows.
        clusters[0].append(clusters[1][0])
        batch = ReadBatch.from_arrays(clusters)
        counted, n_rows, weights = forward_rows(OneWayReconstructor(),
                                                batch, 24)
        expected = distinct_counts(clusters)
        assert weights is not None
        assert n_rows == len(expected)
        assert counted == expected

    def test_weights_none_when_every_read_is_distinct(self):
        clusters = [[np.array([0, 1, 2], np.uint8),
                     np.array([0, 1, 3], np.uint8), EMPTY],
                    [np.array([0, 1, 2], np.uint8)], []]
        matrix, cluster_of, weights = OneWayReconstructor()._read_matrix(
            ReadBatch.from_arrays(clusters), 3
        )
        assert weights is None
        assert matrix.shape[0] == 3
        np.testing.assert_array_equal(cluster_of, [0, 0, 1])

    def test_weights_match_counter_multiplicities(self):
        a, b = np.array([2, 2, 1], np.uint8), np.array([2, 1], np.uint8)
        clusters = [[a, b, a, a, EMPTY, b], [a]]
        counted, n_rows, weights = forward_rows(
            OneWayReconstructor(), ReadBatch.from_arrays(clusters), 3
        )
        assert counted == distinct_counts(clusters) == {
            (0, a.tobytes()): 3, (0, b.tobytes()): 2, (1, a.tobytes()): 1,
        }
        assert n_rows == 3
        np.testing.assert_array_equal(weights, [3, 2, 1])  # batch order

    def test_reversed_rows_mirror_the_distinct_forward_rows(self):
        a, b = np.array([0, 1, 2, 3], np.uint8), np.array([3, 3], np.uint8)
        batch = ReadBatch.from_arrays([[a, b, a], [b]])
        matrix, cluster_of, weights = TwoWayReconstructor()._read_matrix(
            batch, 4, both_ways=True
        )
        half = matrix.shape[0] // 2
        np.testing.assert_array_equal(cluster_of, [0, 0, 1, 3, 2, 2])
        np.testing.assert_array_equal(weights, [2, 1, 1, 1, 1, 2])
        for row in range(half):
            forward = matrix[row][matrix[row] >= 0]
            backward = matrix[2 * half - 1 - row]
            np.testing.assert_array_equal(backward[backward >= 0],
                                          forward[::-1])


@pytest.mark.parametrize("engine_cls,reference_cls", [
    (OneWayReconstructor, ReferenceOneWayReconstructor),
    (TwoWayReconstructor, ReferenceTwoWayReconstructor),
])
def test_colliding_keys_still_match_the_oracle(monkeypatch, engine_cls,
                                               reference_cls):
    """With every row on one sort key the grouping leans on its byte and
    cluster comparison alone; merges may be missed, never wrong."""
    monkeypatch.setattr(
        OneWayReconstructor, "_row_keys",
        staticmethod(lambda words, cluster_of: np.zeros(words.shape[0],
                                                        dtype=np.uint64)),
    )
    clusters = duplicated(
        draw_clusters(11, [NOISY] * 12 + [NOISY_WITH_EMPTY, LOST,
                                          ALL_EMPTY], 30, 0.05, 4),
        2, seed=12,
    )
    engine, reference = engine_cls(), reference_cls()
    batch = ReadBatch.from_arrays(clusters)
    estimates = engine.reconstruct_batch(batch, 30)
    for reads, estimate in zip(clusters, estimates):
        np.testing.assert_array_equal(
            estimate, reference.reconstruct_indices(reads, 30)
        )
    # Copies the sort left apart stay separate rows; the weights still
    # account for every read, and no two different reads merged.
    counted, n_rows, _ = forward_rows(engine, batch, 30)
    expected = distinct_counts(clusters)
    assert counted == expected
    assert len(expected) <= n_rows <= sum(expected.values())


def test_tight_batch_and_non_tight_view_build_the_same_matrix():
    """A batch whose reads lie back to back is read without a gather;
    the same reads behind offsets into a larger buffer are gathered.
    Both must give the same rows, cluster ids and weights."""
    clusters = duplicated(
        draw_clusters(5, [NOISY] * 6 + [LOST, NOISY_WITH_EMPTY], 20, 0.03,
                      4),
        2, seed=6,
    )
    tight = ReadBatch.from_arrays(clusters)
    junk = np.full(7, 3, dtype=np.uint8)
    view = ReadBatch(np.concatenate([junk, tight.buffer, junk]),
                     tight.offsets + junk.size, tight.lengths,
                     tight.cluster_ids, tight.n_clusters)
    for both_ways in (False, True):
        built = TwoWayReconstructor()._read_matrix(tight, 20, both_ways)
        viewed = TwoWayReconstructor()._read_matrix(view, 20, both_ways)
        for got, want in zip(viewed, built):
            np.testing.assert_array_equal(got, want)
