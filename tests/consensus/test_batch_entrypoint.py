"""Batching invariance of the ``reconstruct_batch`` entry point.

Every engine must estimate a cluster the same way whether the cluster
arrives alone or inside a multi-cluster
:class:`~repro.channel.readbatch.ReadBatch` — next to lost clusters,
clusters of empty reads and other clusters' noisy reads, over the DNA
and the binary alphabet. The one-cluster batch is the reference: it is
what ``Reconstructor.reconstruct`` runs for one cluster of strings.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import (
    BatchedChannelEngine,
    ErrorModel,
    FixedCoverage,
    ReadBatch,
    SequencingSimulator,
)
from repro.codec.basemap import random_bases
from repro.consensus import (
    IterativeReconstructor,
    OneWayReconstructor,
    OptimalMedianReconstructor,
    PosteriorReconstructor,
    TwoWayReconstructor,
)

RECONSTRUCTORS = [
    OneWayReconstructor, TwoWayReconstructor, IterativeReconstructor,
    PosteriorReconstructor,
]

#: Cluster kinds the property mixes into one batch.
LOST, ALL_EMPTY, NOISY, NOISY_WITH_EMPTY = range(4)


def noisy_batch(seed=0, n_strands=15, length=48, coverage=6, rate=0.08):
    strands = [random_bases(length, rng=np.random.default_rng(100 + i))
               for i in range(n_strands)]
    simulator = SequencingSimulator(ErrorModel.uniform(rate),
                                    FixedCoverage(coverage))
    return simulator.sequence_batch(strands, rng=seed)


def mixed_batch(seed, kinds, length, rate, n_alphabet):
    """One cluster per entry of ``kinds``, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    model = ErrorModel.uniform(rate)
    empty = np.zeros(0, dtype=np.uint8)
    clusters = []
    for kind in kinds:
        if kind == LOST:
            reads = []
        elif kind == ALL_EMPTY:
            reads = [empty] * int(rng.integers(1, 4))
        else:
            original = rng.integers(0, n_alphabet, length).astype(np.uint8)
            reads = [model.apply_indices(original, rng, n_alphabet=n_alphabet)
                     for _ in range(int(rng.integers(1, 6)))]
            if kind == NOISY_WITH_EMPTY:
                reads.insert(int(rng.integers(len(reads) + 1)), empty)
        clusters.append(reads)
    return ReadBatch.from_arrays(clusters)


def one_cluster_batches(batch):
    """Every cluster of ``batch`` as a batch of its own."""
    return [ReadBatch.from_arrays([batch.reads_of(c)])
            for c in range(batch.n_clusters)]


def assert_rows_equal_one_cluster_batches(reconstructor, batch, length):
    together = reconstructor.reconstruct_batch(batch, length)
    assert together.shape == (batch.n_clusters, length)
    assert together.dtype == np.int64
    for row, alone in zip(together, one_cluster_batches(batch)):
        np.testing.assert_array_equal(
            row, reconstructor.reconstruct_batch(alone, length)[0]
        )


@pytest.mark.parametrize("engine_cls,max_length", [
    pytest.param(OneWayReconstructor, 40, id="one_way"),
    pytest.param(TwoWayReconstructor, 40, id="two_way"),
    pytest.param(IterativeReconstructor, 40, id="iterative"),
    pytest.param(PosteriorReconstructor, 40, id="posterior"),
    pytest.param(OptimalMedianReconstructor, 12, id="median"),
])
class TestBatchingInvariance:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(st.integers(LOST, NOISY_WITH_EMPTY), min_size=1,
                       max_size=6),
        rate=st.floats(0.0, 0.25),
        data=st.data(),
    )
    def test_rows_equal_one_cluster_batches(self, engine_cls, max_length,
                                            seed, kinds, rate, data):
        """The exact median search runs on the binary alphabet only, at
        L <= 12: a cluster of empty reads ties all 2**L strings, and the
        search collects every tie (~0.5 s per such cluster at L = 12)."""
        length = data.draw(st.integers(0, max_length), label="length")
        binary = (engine_cls is OptimalMedianReconstructor
                  or data.draw(st.booleans(), label="binary"))
        n_alphabet = 2 if binary else 4
        batch = mixed_batch(seed, kinds, length, rate, n_alphabet)
        assert_rows_equal_one_cluster_batches(
            engine_cls(n_alphabet=n_alphabet), batch, length
        )


@pytest.mark.parametrize("reconstructor_cls", RECONSTRUCTORS)
class TestBatchEqualsList:
    """Fixed examples of the invariance: a multi-cluster batch equals
    the list of its one-cluster batches."""

    def test_noisy_batch(self, reconstructor_cls):
        assert_rows_equal_one_cluster_batches(
            reconstructor_cls(), noisy_batch(), 48
        )

    def test_degenerate_clusters(self, reconstructor_cls):
        # Lost cluster, cluster of empty reads, ordinary cluster.
        batch = ReadBatch.from_strings(
            [[], ["", ""], ["ACGTAC", "ACTTAC", "AGGTAC"]]
        )
        assert_rows_equal_one_cluster_batches(reconstructor_cls(), batch, 6)

    def test_zero_length(self, reconstructor_cls):
        batch = noisy_batch(n_strands=3)
        result = reconstructor_cls().reconstruct_batch(batch, 0)
        assert result.shape == (3, 0)

    def test_empty_batch(self, reconstructor_cls):
        batch = ReadBatch.from_strings([])
        result = reconstructor_cls().reconstruct_batch(batch, 10)
        assert result.shape == (0, 10)


class TestBinaryAlphabetBatch:
    def test_two_way_binary(self):
        rng = np.random.default_rng(5)
        originals = rng.integers(0, 2, size=(8, 30)).astype(np.uint8)
        engine = BatchedChannelEngine(ErrorModel.uniform(0.1), n_alphabet=2)
        batch = engine.sequence_counts(originals, np.full(8, 5), rng)
        assert_rows_equal_one_cluster_batches(
            TwoWayReconstructor(n_alphabet=2), batch, 30
        )


class TestPosteriorBatchConfidence:
    def test_confidence_matches_list_variant(self):
        """Confidences of a multi-cluster batch equal each cluster's own
        one-cluster batch, to float round-off: the read stacks differ in
        padded width, which regroups sums over zero-mass columns."""
        batch = noisy_batch(n_strands=5, coverage=4)
        reconstructor = PosteriorReconstructor()
        together = reconstructor.reconstruct_batch_with_confidence(batch, 48)
        assert len(together) == batch.n_clusters
        for (estimate, confidence), alone in zip(
            together, one_cluster_batches(batch)
        ):
            (expected, expected_confidence), = \
                reconstructor.reconstruct_batch_with_confidence(alone, 48)
            np.testing.assert_array_equal(estimate, expected)
            np.testing.assert_allclose(confidence, expected_confidence,
                                       rtol=1e-9, atol=1e-12)
