"""Differential tests: batched engine vs frozen reference implementations.

The production reconstructors advance every read of every cluster
simultaneously (:mod:`repro.consensus.bma`); the originals they replaced
are frozen in :mod:`oracles.consensus`. These tests assert the two
produce *byte-identical* output — per cluster, across whole batched units,
and under degenerate inputs — so any future optimization of the hot path
is checked by construction against an implementation that never changes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import ErrorModel, ReadBatch
from repro.codec.basemap import indices_to_bases
from oracles.consensus import (
    ReferenceIterativeReconstructor,
    ReferenceOneWayReconstructor,
    ReferencePosteriorReconstructor,
    ReferenceTwoWayReconstructor,
)
from repro.consensus import (
    IterativeReconstructor,
    OneWayReconstructor,
    PosteriorReconstructor,
    TwoWayReconstructor,
)

PAIRS = [
    (OneWayReconstructor, ReferenceOneWayReconstructor),
    (TwoWayReconstructor, ReferenceTwoWayReconstructor),
    (IterativeReconstructor, ReferenceIterativeReconstructor),
]
PAIR_IDS = ["one_way", "two_way", "iterative"]


def random_unit(seed, n_clusters, length, rate, max_coverage, n_alphabet=4):
    """A batch of clusters with randomized coverage (including dropouts)."""
    rng = np.random.default_rng(seed)
    model = ErrorModel.uniform(rate)
    clusters = []
    for _ in range(n_clusters):
        original = rng.integers(0, n_alphabet, length).astype(np.uint8)
        coverage = int(rng.integers(0, max_coverage + 1))
        clusters.append([
            model.apply_indices(original, rng, n_alphabet=n_alphabet)
            for _ in range(coverage)
        ])
    return clusters


def workload_unit(seed, n_clusters, coverage, length, rate, n_alphabet=4):
    """A unit shaped like the store's: many clusters at ``coverage`` reads
    and a low error rate, so unanimous clusters sit next to disagreeing
    ones in the same step. About 6% of clusters are lost; some clusters
    carry an empty read, a read extended past ``length``, or only empty
    reads."""
    rng = np.random.default_rng(seed)
    model = ErrorModel.uniform(rate)
    clusters = []
    for c in range(n_clusters):
        original = rng.integers(0, n_alphabet, length).astype(np.uint8)
        count = 0 if rng.random() < 0.06 else int(rng.poisson(coverage))
        reads = [model.apply_indices(original, rng, n_alphabet=n_alphabet)
                 for _ in range(count)]
        if reads and rng.random() < 0.05:
            reads.insert(int(rng.integers(len(reads))),
                         np.zeros(0, dtype=np.uint8))
        if reads and rng.random() < 0.05:
            tail = rng.integers(0, n_alphabet, int(rng.integers(1, 12)))
            reads[-1] = np.concatenate([reads[-1], tail]).astype(np.uint8)
        if c == n_clusters // 2:
            reads = [np.zeros(0, dtype=np.uint8)] * 2
        clusters.append(reads)
    return clusters


def assert_batch_matches_reference(fast, slow, clusters, length):
    """``reconstruct_batch`` over all ``clusters`` equals the reference
    run one cluster at a time."""
    batched = fast.reconstruct_batch(ReadBatch.from_arrays(clusters), length)
    assert batched.shape == (len(clusters), length)
    assert batched.dtype == np.int64
    for reads, estimate in zip(clusters, batched):
        expected = slow.reconstruct_indices(reads, length)
        np.testing.assert_array_equal(estimate, expected)


@pytest.mark.parametrize("fast_cls,ref_cls", PAIRS, ids=PAIR_IDS)
class TestBatchedMatchesReference:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**9),
        n_clusters=st.integers(1, 8),
        length=st.integers(1, 40),
        rate=st.floats(0.0, 0.25),
        max_coverage=st.integers(1, 6),
    )
    def test_randomized_units(self, fast_cls, ref_cls, seed, n_clusters,
                              length, rate, max_coverage):
        clusters = random_unit(seed, n_clusters, length, rate, max_coverage)
        assert_batch_matches_reference(fast_cls(), ref_cls(), clusters, length)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_binary_alphabet(self, fast_cls, ref_cls, seed):
        clusters = random_unit(seed, 5, 24, 0.2, 4, n_alphabet=2)
        assert_batch_matches_reference(
            fast_cls(n_alphabet=2), ref_cls(n_alphabet=2), clusters, 24
        )

    def test_scalar_entry_point_matches_reference(self, fast_cls, ref_cls):
        """The one-cluster string adapter, ``reconstruct``."""
        clusters = random_unit(99, 6, 30, 0.15, 5)
        fast, slow = fast_cls(), ref_cls()
        for reads in clusters:
            strings = [indices_to_bases(read) for read in reads]
            assert fast.reconstruct(strings, 30) \
                == slow.reconstruct(strings, 30)

    def test_empty_batch(self, fast_cls, ref_cls):
        empty = ReadBatch.from_arrays([])
        assert fast_cls().reconstruct_batch(empty, 10).shape == (0, 10)

    def test_empty_and_singleton_clusters(self, fast_cls, ref_cls):
        clusters = [
            [],  # dropout: no reads at all
            [np.array([2], dtype=np.int64)],  # singleton read
            [np.zeros(0, dtype=np.int64)],  # one zero-length read
            [np.array([0, 1, 2, 3] * 5, dtype=np.int64)] * 3,
        ]
        assert_batch_matches_reference(fast_cls(), ref_cls(), clusters, 12)

    def test_wildly_uneven_read_lengths(self, fast_cls, ref_cls):
        rng = np.random.default_rng(3)
        clusters = [
            [rng.integers(0, 4, n).astype(np.int64)
             for n in (1, 2, 40, 80, 3, 77)],
            [rng.integers(0, 4, 200).astype(np.int64)],
        ]
        assert_batch_matches_reference(fast_cls(), ref_cls(), clusters, 60)

    def test_zero_length_output(self, fast_cls, ref_cls):
        batch = ReadBatch.from_arrays(random_unit(5, 3, 10, 0.1, 3))
        assert fast_cls().reconstruct_batch(batch, 0).shape == (3, 0)


@pytest.mark.parametrize("fast_cls,ref_cls", PAIRS[:2], ids=PAIR_IDS[:2])
class TestScanMatchesReferenceAtWorkloadScale:
    """The pointer scans on the store's consensus calls, where most
    clusters are unanimous at a step and the few that are not get
    lookahead ballots. (The iterative pair is left out: its reference is
    far too slow at these sizes, and its seed is the two-way scan.)"""

    @pytest.mark.parametrize("length,n_alphabet", [(28, 4), (27, 2)])
    def test_serve_shape(self, fast_cls, ref_cls, length, n_alphabet):
        """The serve workload: 256 clusters at coverage 16 and 1% error,
        L=28 (and an odd length over the binary alphabet)."""
        clusters = workload_unit(length, 256, 16, length, 0.01,
                                 n_alphabet=n_alphabet)
        assert_batch_matches_reference(
            fast_cls(n_alphabet=n_alphabet), ref_cls(n_alphabet=n_alphabet),
            clusters, length,
        )

    @pytest.mark.slow
    def test_archive_shape(self, fast_cls, ref_cls):
        """The archive workload: 240 clusters at coverage 8, L=664."""
        clusters = workload_unit(664, 240, 8, 664, 0.01)
        assert_batch_matches_reference(fast_cls(), ref_cls(), clusters, 664)


class TestPosteriorMatchesReference:
    """The batched posterior lattice vs the frozen per-read original.

    Estimates must match byte for byte. Confidences are pinned to float
    round-off rather than bitwise: the batched lattice sums the same
    per-read vote terms, but in a different association order (segmented
    ``reduceat``, probability-domain edge products), so the soft values
    agree only to ~1e-12 relative.
    """

    def assert_matches(self, clusters, length, channel):
        fast = PosteriorReconstructor(channel=channel)
        slow = ReferencePosteriorReconstructor(channel=channel)
        batched = fast.reconstruct_batch_with_confidence(
            ReadBatch.from_arrays(clusters), length
        )
        assert len(batched) == len(clusters)
        for reads, (estimate, confidence) in zip(clusters, batched):
            expected, expected_confidence = slow.reconstruct_with_confidence(
                reads, length
            )
            np.testing.assert_array_equal(estimate, expected)
            np.testing.assert_allclose(
                confidence, expected_confidence, rtol=1e-9, atol=1e-12
            )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_units(self, seed):
        clusters = random_unit(seed, 8, 36, 0.1, 6)
        self.assert_matches(clusters, 36, ErrorModel.uniform(0.08))

    def test_high_noise_unit(self):
        clusters = random_unit(77, 6, 48, 0.22, 5)
        self.assert_matches(clusters, 48, ErrorModel.uniform(0.15))

    def test_deletion_heavy_channel(self):
        """No insertions at all (insertion step 0) plus heavy deletions —
        the regime that stresses the lattice boundary handling."""
        channel = ErrorModel(p_insertion=0.0, p_deletion=0.2,
                             p_substitution=0.05)
        rng = np.random.default_rng(9)
        clusters = []
        for _ in range(6):
            original = rng.integers(0, 4, 40).astype(np.uint8)
            clusters.append([
                channel.apply_indices(original, rng) for _ in range(4)
            ])
        self.assert_matches(clusters, 40, channel)

    def test_impossible_read_stays_finite(self):
        """The one deliberate divergence from the reference: a read that
        is impossible under the model (longer than the estimate with
        ``p_insertion=0``) zeroes the whole lattice. The reference's
        log-space rescaling turns that into NaN votes and confidences;
        the batched probability-domain path keeps the read voteless and
        finite, which is the behavior pinned here."""
        channel = ErrorModel(p_insertion=0.0, p_deletion=0.2,
                             p_substitution=0.05)
        rng = np.random.default_rng(4)
        reads = [rng.integers(0, 4, 40).astype(np.int64),
                 rng.integers(0, 4, 25).astype(np.int64)]
        fast = PosteriorReconstructor(channel=channel)
        batch = ReadBatch.from_arrays([reads])
        (estimate, confidence), = fast.reconstruct_batch_with_confidence(
            batch, 30
        )
        assert np.isfinite(confidence).all()
        assert estimate.shape == (30,)
        assert ((estimate >= 0) & (estimate < 4)).all()
        # And it is deterministic, not NaN-poisoned garbage.
        (again, again_confidence), = fast.reconstruct_batch_with_confidence(
            batch, 30
        )
        np.testing.assert_array_equal(estimate, again)
        np.testing.assert_array_equal(confidence, again_confidence)

    def test_binary_alphabet(self):
        rng = np.random.default_rng(13)
        model = ErrorModel.uniform(0.12)
        clusters = []
        for _ in range(5):
            original = rng.integers(0, 2, 30).astype(np.uint8)
            clusters.append([
                model.apply_indices(original, rng, n_alphabet=2)
                for _ in range(4)
            ])
        fast = PosteriorReconstructor(channel=model, n_alphabet=2)
        slow = ReferencePosteriorReconstructor(channel=model, n_alphabet=2)
        for reads, (estimate, confidence) in zip(
            clusters, fast.reconstruct_batch_with_confidence(
                ReadBatch.from_arrays(clusters), 30
            )
        ):
            expected, expected_confidence = slow.reconstruct_with_confidence(
                reads, 30
            )
            np.testing.assert_array_equal(estimate, expected)
            np.testing.assert_allclose(
                confidence, expected_confidence, rtol=1e-9, atol=1e-12
            )

    def test_degenerate_clusters(self):
        clusters = [
            [],
            [np.zeros(0, dtype=np.int64)],
            [np.array([1], dtype=np.int64)],
            [np.array([0, 1, 2, 3] * 4, dtype=np.int64)] * 3,
        ]
        self.assert_matches(clusters, 10, ErrorModel.uniform(0.08))

    def test_columnar_entry_point(self):
        """The ReadBatch path must agree with the reference as well."""
        channel = ErrorModel.uniform(0.1)
        clusters = random_unit(5, 7, 32, 0.1, 5)
        batch = ReadBatch.from_arrays(clusters)
        fast = PosteriorReconstructor(channel=channel)
        slow = ReferencePosteriorReconstructor(channel=channel)
        for reads, (estimate, confidence) in zip(
            clusters, fast.reconstruct_batch_with_confidence(batch, 32)
        ):
            expected, expected_confidence = slow.reconstruct_with_confidence(
                reads, 32
            )
            np.testing.assert_array_equal(estimate, expected)
            np.testing.assert_allclose(
                confidence, expected_confidence, rtol=1e-9, atol=1e-12
            )


class TestBatchedRefinementInternals:
    """Properties specific to the batched refinement engines."""

    def test_iterative_chunked_equals_unchunked(self, monkeypatch):
        """A tiny DP budget forces many chunks; votes are additive, so the
        result must not change."""
        batch = ReadBatch.from_arrays(random_unit(21, 10, 40, 0.12, 6))
        whole = IterativeReconstructor().reconstruct_batch(batch, 40)
        monkeypatch.setattr(IterativeReconstructor, "dp_budget_bytes", 1)
        chunked = IterativeReconstructor().reconstruct_batch(batch, 40)
        np.testing.assert_array_equal(whole, chunked)

    def test_posterior_chunked_equals_unchunked(self, monkeypatch):
        """Chunk boundaries fall inside clusters; the segmented reduceat
        accumulation must keep per-cluster read order regardless."""
        batch = ReadBatch.from_arrays(random_unit(22, 8, 32, 0.1, 6))
        whole = PosteriorReconstructor().reconstruct_batch_with_confidence(
            batch, 32
        )
        monkeypatch.setattr(PosteriorReconstructor, "lattice_budget_bytes", 1)
        chunked = PosteriorReconstructor().reconstruct_batch_with_confidence(
            batch, 32
        )
        for (ew, cw), (ec, cc) in zip(whole, chunked):
            np.testing.assert_array_equal(ew, ec)
            np.testing.assert_allclose(cw, cc, rtol=1e-9, atol=1e-12)

    def test_iterative_active_set_isolation(self):
        """A cluster at its fixed point must not change when refined next
        to a cluster that needs many iterations."""
        easy = [np.array([0, 1, 2, 3] * 6, dtype=np.int64)] * 4
        hard = random_unit(33, 1, 24, 0.25, 6)[0]
        solo = IterativeReconstructor().reconstruct_batch(
            ReadBatch.from_arrays([easy]), 24
        )[0]
        together = IterativeReconstructor().reconstruct_batch(
            ReadBatch.from_arrays([easy, hard, easy]), 24
        )
        np.testing.assert_array_equal(together[0], solo)
        np.testing.assert_array_equal(together[2], solo)

    def test_reads_longer_and_shorter_than_length(self):
        rng = np.random.default_rng(3)
        clusters = [
            [rng.integers(0, 4, n).astype(np.int64)
             for n in (2, 90, 17, 60, 1)],
        ]
        fast = IterativeReconstructor()
        slow = ReferenceIterativeReconstructor()
        np.testing.assert_array_equal(
            fast.reconstruct_batch(ReadBatch.from_arrays(clusters), 45)[0],
            slow.reconstruct_indices(clusters[0], 45),
        )


class TestOneWayParameterVariants:
    """Non-default lookahead / fill_symbol must match the reference too."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9), lookahead=st.integers(1, 6),
           fill=st.integers(0, 3))
    def test_lookahead_and_fill(self, seed, lookahead, fill):
        clusters = random_unit(seed, 4, 25, 0.2, 3)
        fast = OneWayReconstructor(lookahead=lookahead, fill_symbol=fill)
        slow = ReferenceOneWayReconstructor(lookahead=lookahead, fill_symbol=fill)
        assert_batch_matches_reference(fast, slow, clusters, 25)

    @pytest.mark.parametrize("lookahead", range(1, 7))
    @pytest.mark.parametrize("fast_cls,ref_cls", PAIRS[:2], ids=PAIR_IDS[:2])
    def test_lookahead_at_workload_scale(self, fast_cls, ref_cls, lookahead):
        clusters = workload_unit(lookahead, 64, 16, 29, 0.02)
        assert_batch_matches_reference(
            fast_cls(lookahead=lookahead), ref_cls(lookahead=lookahead),
            clusters, 29,
        )

    def test_string_batch_api(self):
        """A batch packed from strings agrees with the reference."""
        rng = np.random.default_rng(11)
        model = ErrorModel.uniform(0.1)
        strands = ["".join("ACGT"[i] for i in rng.integers(0, 4, 30))
                   for _ in range(5)]
        clusters = [model.apply_many(s, 4, rng) for s in strands]
        fast = TwoWayReconstructor()
        slow = ReferenceTwoWayReconstructor()
        batched = fast.reconstruct_batch(ReadBatch.from_strings(clusters), 30)
        for reads, estimate in zip(clusters, batched):
            assert indices_to_bases(estimate) == slow.reconstruct(reads, 30)
