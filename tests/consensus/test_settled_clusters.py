"""Strict-majority clusters are settled before the pointer scan's steps.

``OneWayReconstructor.scan_padded`` settles every cluster whose heaviest
row holds a strict majority of the cluster's row weight and reaches the
scan's last step: that row wins every vote it takes part in, so the
cluster's estimate is the row's first ``length`` symbols, and only the
other clusters' rows enter the step loop. These tests pin that the
shortcut is exact against the frozen per-cluster oracle (clusters with
more, as many and fewer exact copies than noisy reads, majority rows
shorter than the strand), that a tie at half and a short majority row
do not settle, and what the tracer's counters report.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus.test_batch_entrypoint import ALL_EMPTY, LOST
from consensus.test_distinct_rows import draw_clusters
from oracles.consensus import (
    ReferenceOneWayReconstructor,
    ReferenceTwoWayReconstructor,
)
from repro.channel import ErrorModel, ReadBatch
from repro.consensus import OneWayReconstructor, TwoWayReconstructor
from repro.observability import Tracer, use_tracer

ENGINES = [
    pytest.param(OneWayReconstructor, ReferenceOneWayReconstructor,
                 id="one_way"),
    pytest.param(TwoWayReconstructor, ReferenceTwoWayReconstructor,
                 id="two_way"),
]


def copies_and_noisy(rng, template, copies, noisy, rate, n_alphabet):
    """``copies`` exact copies of ``template`` and ``noisy`` reads of it
    through a uniform channel at ``rate``, shuffled."""
    model = ErrorModel.uniform(rate)
    reads = [template] * copies + [
        model.apply_indices(template, rng, n_alphabet=n_alphabet)
        for _ in range(noisy)
    ]
    return [reads[i] for i in rng.permutation(len(reads))]


def assert_matches_oracle(engine, reference, clusters, length):
    estimates = engine.reconstruct_batch(ReadBatch.from_arrays(clusters),
                                         length)
    assert estimates.shape == (len(clusters), length)
    for reads, estimate in zip(clusters, estimates):
        np.testing.assert_array_equal(
            estimate, reference.reconstruct_indices(reads, length)
        )


def scan_counters(engine, clusters, length):
    tracer = Tracer()
    with use_tracer(tracer):
        engine.reconstruct_batch(ReadBatch.from_arrays(clusters), length)
    counters = tracer.metrics.snapshot()["counters"]
    return (counters["consensus.settled_clusters"],
            counters["consensus.scanned_rows"])


@pytest.mark.parametrize("engine_cls,reference_cls", ENGINES)
class TestSettledMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shapes=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5),
                      st.integers(-3, 2)),
            min_size=1, max_size=6,
        ),
        extra=st.lists(st.sampled_from([LOST, ALL_EMPTY]), max_size=2),
        rate=st.floats(0.0, 0.05),
        lookahead=st.integers(1, 6),
        binary=st.booleans(),
        length=st.integers(1, 32),
    )
    def test_every_row_equals_the_oracle(
        self, engine_cls, reference_cls, seed, shapes, extra, rate,
        lookahead, binary, length,
    ):
        """Clusters of k exact copies of a template plus m noisy reads:
        k > m settles when the template reaches the last step, k = m
        ties and k < m stays open. Templates run from 3 symbols short of
        the strand to 2 past it, so some majority rows are too short to
        settle; lost and all-empty clusters ride along."""
        n_alphabet = 2 if binary else 4
        rng = np.random.default_rng(seed)
        clusters = []
        for copies, noisy, delta in shapes:
            template = rng.integers(0, n_alphabet, max(0, length + delta))
            clusters.append(copies_and_noisy(
                rng, template.astype(np.uint8), copies, noisy, rate,
                n_alphabet,
            ))
        clusters += draw_clusters(seed, extra, length, rate, n_alphabet)
        assert_matches_oracle(
            engine_cls(lookahead=lookahead, n_alphabet=n_alphabet),
            reference_cls(lookahead=lookahead, n_alphabet=n_alphabet),
            clusters, length,
        )


@pytest.mark.parametrize("engine_cls,reference_cls", ENGINES)
def test_tie_at_half_does_not_settle(engine_cls, reference_cls):
    """Two rows of weight 2 in a cluster of 4: neither holds a strict
    majority, so the scan's first vote breaks the tie towards the lower
    symbol and ``a`` wins. Settling at half would hand the cluster to
    whichever row came last, here ``b``."""
    a = np.array([1, 0, 1, 3, 2], dtype=np.uint8)
    b = np.array([2, 0, 1, 3, 2], dtype=np.uint8)
    reads = [a, a, b, b]
    assert_matches_oracle(engine_cls(), reference_cls(), [reads], 5)
    estimate = engine_cls().reconstruct_batch(
        ReadBatch.from_arrays([reads]), 5)[0]
    np.testing.assert_array_equal(estimate, a)


@pytest.mark.parametrize("engine_cls,reference_cls", ENGINES)
def test_short_majority_row_does_not_settle(engine_cls, reference_cls):
    """Three copies of a read two symbols short of the strand outweigh
    the one full read, but run out before the last step: the scan's last
    two positions come from the full read."""
    length = 12
    full = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 3, 2], dtype=np.uint8)
    reads = [full[:length - 2]] * 3 + [full]
    assert_matches_oracle(engine_cls(), reference_cls(), [reads], length)
    estimate = engine_cls().reconstruct_batch(
        ReadBatch.from_arrays([reads]), length)[0]
    if engine_cls is OneWayReconstructor:
        np.testing.assert_array_equal(estimate[-2:], full[-2:])


class TestCounters:
    """A recording tracer sees how much of each call the loop scanned."""

    A = np.array([0, 1, 2, 3, 0, 1], dtype=np.uint8)
    B = np.array([3, 2, 1, 0, 3, 2], dtype=np.uint8)

    def clusters(self):
        # Settled (3 of 4), tied (2 of 4), lost, single read (settled).
        return [[self.A, self.A, self.B, self.A], [self.A, self.B], [],
                [self.B]]

    def test_one_way(self):
        settled, scanned = scan_counters(OneWayReconstructor(),
                                         self.clusters(), 6)
        assert (settled, scanned) == (2, 2)

    def test_two_way_counts_each_direction(self):
        settled, scanned = scan_counters(TwoWayReconstructor(),
                                         self.clusters(), 6)
        assert (settled, scanned) == (4, 4)

    def test_nothing_settles_past_the_matrix(self):
        """No row reaches a step past the read matrix's width."""
        settled, scanned = scan_counters(OneWayReconstructor(),
                                         self.clusters(), 40)
        assert (settled, scanned) == (0, 5)


def test_open_clusters_scan_their_inputs_uncopied(monkeypatch):
    """When no cluster settles, the step loop gets the matrix it was
    given; when every cluster settles, it does not run at all."""
    given_matrices = []
    steps = OneWayReconstructor._scan_steps

    def spy(self, matrix, *args):
        given_matrices.append(matrix)
        return steps(self, matrix, *args)

    monkeypatch.setattr(OneWayReconstructor, "_scan_steps", spy)
    engine = OneWayReconstructor()
    a = np.array([1, 0, 1, 3, 2], dtype=np.int8)
    b = np.array([2, 0, 1, 3, 2], dtype=np.int8)
    matrix = np.full((2, 16), -1, dtype=np.int8)
    matrix[0, :5], matrix[1, :5] = a, b
    cluster_of = np.zeros(2, dtype=np.int64)
    engine.scan_padded(matrix, cluster_of, 1, 5, np.array([2, 2]))
    assert len(given_matrices) == 1
    assert given_matrices[0] is matrix

    estimates = engine.scan_padded(matrix, np.array([0, 1]), 2, 5)
    assert len(given_matrices) == 1
    np.testing.assert_array_equal(estimates, [a, b])
