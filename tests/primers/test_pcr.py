"""Tests for PCR selection and trimming on the columnar read plane."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.primers import ReferencePcrSelector
from repro.channel import ErrorModel, ReadBatch
from repro.codec.basemap import random_bases
from repro.primers import PcrSelector, PrimerDesigner, PrimerPair, attach_primers


@pytest.fixture
def pair():
    return PrimerPair(forward="ACGTACGTACGTACGTACGT",
                      reverse="TGCATGCATGCATGCATGCA")


@pytest.fixture
def other_pair():
    return PrimerPair(forward="GGTTGGTTAACCAACCGGTT",
                      reverse="CCAACCAATTGGTTGGCCAA")


def select(selector, reads):
    """``select_batch`` over one read per cluster, as base strings."""
    selected = selector.select_batch(
        ReadBatch.from_strings([[read] for read in reads])
    )
    return [selected.read_string(i) for i in range(selected.n_reads)]


class TestAttachPrimers:
    def test_layout(self, pair):
        tagged = attach_primers("AAAA", pair)
        assert tagged.startswith(pair.forward)
        assert tagged.endswith(pair.reverse)
        assert len(tagged) == 4 + len(pair.forward) + len(pair.reverse)


class TestPcrSelector:
    def test_clean_read_matches_and_trims(self, pair):
        payload = "ACCATTGGAACCATTGG"
        read = attach_primers(payload, pair)
        assert select(PcrSelector(pair), [read]) == [payload]

    def test_wrong_primer_rejected(self, pair, other_pair):
        read = attach_primers("ACCATTGGAACCATTGG", other_pair)
        assert select(PcrSelector(pair, max_errors=3), [read]) == []

    def test_noisy_primer_tolerated(self, pair, rng):
        payload = random_bases(30, rng)
        read = attach_primers(payload, pair)
        model = ErrorModel.uniform(0.04)
        noisy = [model.apply(read, rng) for _ in range(20)]
        selected = select(PcrSelector(pair, max_errors=4), noisy)
        assert len(selected) >= 16  # the occasional heavy corruption may miss

    def test_trim_recovers_payload_approximately(self, pair, rng):
        payload = random_bases(40, rng)
        read = attach_primers(payload, pair)
        assert select(PcrSelector(pair, max_errors=3), [read]) == [payload]

    def test_select_filters_mixture(self, pair, other_pair, rng):
        mine = [attach_primers(random_bases(20, rng), pair) for _ in range(5)]
        theirs = [attach_primers(random_bases(20, rng), other_pair)
                  for _ in range(5)]
        selector = PcrSelector(pair, max_errors=3)
        assert len(select(selector, mine + theirs)) == 5

    def test_mismatch_selects_nothing(self, pair, other_pair):
        selector = PcrSelector(pair, max_errors=2)
        assert select(selector, [attach_primers("AAAA", other_pair)]) == []

    def test_read_shorter_than_primers(self, pair):
        assert select(PcrSelector(pair, max_errors=2), ["ACG"]) == []

    def test_keeps_cluster_structure(self, pair, other_pair):
        """Clusters whose reads all fail keep their id with zero reads."""
        batch = ReadBatch.from_strings(
            [[attach_primers("ACGT", other_pair)],
             [attach_primers("ACGT", pair), attach_primers("TTTT", pair)]],
            source_indices=[5, 9],
        )
        selected = PcrSelector(pair).select_batch(batch)
        assert selected.n_clusters == 2
        assert list(selected.coverage_counts()) == [0, 2]
        assert list(selected.source_indices) == [5, 9]


#: Two designed pairs: the mixtures below tag reads with either.
PAIRS = PrimerDesigner(length=12, min_distance=5).design_set(2, rng=11)

#: A read spec: (kind, size) — kind 0/1 tags a ``size``-base payload
#: with that pair, kind 2 is ``size`` raw bases cut shorter than a
#: primer, kind 3 is an empty read.
READ_SPECS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 30)), max_size=10
)


def make_reads(specs, rate, rng):
    model = ErrorModel.uniform(rate)
    reads = []
    for kind, size in specs:
        if kind < 2:
            read = attach_primers(random_bases(size, rng), PAIRS[kind])
            reads.append(model.apply(read, rng))
        elif kind == 2:
            reads.append(random_bases(size % len(PAIRS[0].forward), rng))
        else:
            reads.append("")
    return reads


class TestSelectBatchMatchesScalarOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        specs=READ_SPECS,
        target=st.integers(0, 1),
        max_errors=st.integers(0, 4),
        window_slack=st.integers(0, 5),
        rate=st.sampled_from([0.0, 0.02, 0.06, 0.15]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_reads_and_windows(self, specs, target, max_errors,
                                    window_slack, rate, seed):
        """``select_batch`` keeps exactly the reads the frozen per-read
        loop keeps, cut at the same ``[start, end)`` windows."""
        reads = make_reads(specs, rate, np.random.default_rng(seed))
        batch = ReadBatch.from_strings([[read] for read in reads])
        pair = PAIRS[target]
        selected = PcrSelector(pair, max_errors, window_slack) \
            .select_batch(batch)
        oracle = ReferencePcrSelector(pair, max_errors, window_slack)

        want = [
            (i, oracle._locate_forward(read), oracle._locate_reverse(read))
            for i, read in enumerate(reads)
            if oracle.trim(read) is not None
        ]
        starts = selected.offsets - batch.offsets[selected.cluster_ids]
        got = [
            (int(cluster), int(start), int(start + length))
            for cluster, start, length in zip(
                selected.cluster_ids, starts, selected.lengths
            )
        ]
        assert got == want
        assert [selected.read_string(i) for i in range(selected.n_reads)] \
            == oracle.select(reads)
        assert selected.n_clusters == batch.n_clusters
