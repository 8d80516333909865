"""Unit and property tests for edit distance.

The banded kernel is pinned value for value to the frozen integer DP in
``tests/oracles/cluster.py`` (bands 0-70, strands up to paper scale,
every input dtype the clusterers and primer selector pass), and both
clusterers must partition a pool-shaped batch identically on either.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.cluster import (
    banded_edit_distance_indices_reference,
    banded_edit_distances_stack_reference,
)
from repro.channel import ErrorModel, FixedCoverage, SequencingSimulator
from repro.cluster import BatchedGreedyClusterer, LSHClusterer
from repro.cluster.distance import (
    banded_edit_distance,
    banded_edit_distance_indices,
    banded_edit_distances_stack,
    edit_distance,
    edit_distance_indices,
)
from repro.codec.basemap import bases_to_indices
from repro.core import DnaStore, MatrixConfig, PipelineConfig
from repro.observability import Tracer, use_tracer

DNA = st.text(alphabet="ACGT", max_size=40)


def _reference_levenshtein(a: str, b: str) -> int:
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, 1):
        current = [i]
        for j, char_b in enumerate(b, 1):
            current.append(min(
                previous[j - 1] + (char_a != char_b),
                previous[j] + 1,
                current[-1] + 1,
            ))
        previous = current
    return previous[-1]


class TestEditDistance:
    @pytest.mark.parametrize("a,b,expected", [
        ("", "", 0),
        ("A", "", 1),
        ("", "ACGT", 4),
        ("ACGT", "ACGT", 0),
        ("ACGT", "AGGT", 1),      # substitution
        ("ACGT", "ACGGT", 1),     # insertion
        ("ACGT", "AGT", 1),       # deletion
        ("GATTACA", "GCATGCT", 4),
    ])
    def test_known_values(self, a, b, expected):
        assert edit_distance(a, b) == expected

    @given(DNA, DNA)
    def test_matches_reference(self, a, b):
        assert edit_distance(a, b) == _reference_levenshtein(a, b)

    @given(DNA, DNA)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(DNA)
    def test_identity(self, a):
        assert edit_distance(a, a) == 0

    @settings(max_examples=50)
    @given(DNA, DNA, DNA)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    def test_indices_variant(self, rng):
        a = rng.integers(0, 4, 20)
        b = rng.integers(0, 4, 25)
        from repro.codec.basemap import indices_to_bases
        assert edit_distance_indices(a, b) == edit_distance(
            indices_to_bases(a), indices_to_bases(b)
        )


class TestBandedEditDistance:
    @given(DNA, DNA)
    def test_exact_within_band(self, a, b):
        true_distance = _reference_levenshtein(a, b)
        result = banded_edit_distance(a, b, band=8)
        if true_distance <= 8:
            assert result == true_distance
        else:
            assert result > 8

    def test_band_zero_equal_strings(self):
        assert banded_edit_distance("ACGT", "ACGT", band=0) == 0

    def test_band_zero_different_strings(self):
        assert banded_edit_distance("ACGT", "ACGA", band=0) > 0

    def test_length_gap_short_circuit(self):
        assert banded_edit_distance("A" * 30, "A", band=3) == 29

    def test_negative_band_rejected(self):
        with pytest.raises(ValueError):
            banded_edit_distance("A", "A", band=-1)

    def test_certificate_exceeds_band(self):
        # Distance 4 with band 2: any value > 2 is acceptable.
        assert banded_edit_distance("AAAA", "TTTT", band=2) > 2


def _as_indices(strand):
    return (bases_to_indices(strand) if strand
            else np.zeros(0, dtype=np.uint8))


class TestBandedEditDistanceIndices:
    @given(DNA, DNA)
    def test_matches_string_variant(self, a, b):
        for band in (0, 3, 8):
            assert banded_edit_distance_indices(
                _as_indices(a), _as_indices(b), band
            ) == banded_edit_distance(a, b, band)

    def test_negative_band_rejected(self):
        with pytest.raises(ValueError):
            banded_edit_distance_indices(
                _as_indices("A"), _as_indices("A"), -1
            )


class TestBandedEditDistancesStack:
    @staticmethod
    def _stack(strands):
        from repro.channel.readbatch import ReadBatch

        batch = ReadBatch.from_arrays([[_as_indices(s)] for s in strands])
        return batch.padded_matrix()

    @settings(max_examples=30)
    @given(st.lists(st.tuples(DNA, DNA), min_size=1, max_size=12),
           st.integers(min_value=0, max_value=10))
    def test_matches_scalar_banded(self, pairs, band):
        queries, lengths = self._stack([a for a, _ in pairs])
        targets, target_lengths = self._stack([b for _, b in pairs])
        distances = banded_edit_distances_stack(
            queries, lengths, targets, target_lengths, band
        )
        for k, (a, b) in enumerate(pairs):
            true = _reference_levenshtein(a, b)
            if true <= band:
                assert distances[k] == true
            else:
                assert distances[k] > band

    def test_exact_within_band_near_pairs(self, rng):
        """Noisy-copy pairs (the clustering workload) come back exact."""
        from repro.channel import ErrorModel
        from repro.codec.basemap import random_bases

        model = ErrorModel.uniform(0.05)
        originals = [random_bases(50, rng) for _ in range(40)]
        noisy = [model.apply(s, rng) for s in originals]
        queries, lengths = self._stack(noisy)
        targets, target_lengths = self._stack(originals)
        distances = banded_edit_distances_stack(
            queries, lengths, targets, target_lengths, band=25
        )
        for k in range(len(originals)):
            assert distances[k] == _reference_levenshtein(
                noisy[k], originals[k]
            )

    def test_empty_stack(self):
        distances = banded_edit_distances_stack(
            np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64),
            band=3,
        )
        assert distances.shape == (0,)

    def test_misaligned_lengths_rejected(self):
        with pytest.raises(ValueError):
            banded_edit_distances_stack(
                np.zeros((2, 4), dtype=np.int64),
                np.zeros(3, dtype=np.int64),
                np.zeros((2, 4), dtype=np.int64),
                np.zeros(2, dtype=np.int64),
                band=1,
            )

    def test_negative_band_rejected(self):
        with pytest.raises(ValueError):
            banded_edit_distances_stack(
                np.zeros((1, 1), dtype=np.int64),
                np.ones(1, dtype=np.int64),
                np.zeros((1, 1), dtype=np.int64),
                np.ones(1, dtype=np.int64),
                band=-1,
            )


def _mutated(rng, strand, n_edits):
    """``strand`` after ``n_edits`` random substitutions, insertions or
    deletions."""
    out = list(strand)
    for _ in range(n_edits):
        kind = int(rng.integers(3))
        pos = int(rng.integers(0, len(out) + 1))
        if kind == 0 or not out:
            out.insert(pos, int(rng.integers(4)))
        elif kind == 1:
            del out[min(pos, len(out) - 1)]
        else:
            out[min(pos, len(out) - 1)] = int(rng.integers(4))
    return np.array(out, dtype=np.int64)


@st.composite
def pair_stacks(draw, max_len, max_pairs=8, max_band=70):
    """``(band, [(query, target), ...])``: noisy copies with around
    ``band`` edits (distances either side of the band edge) mixed with
    unrelated strands. Bands 31/32 straddle one 64-bit lane."""
    band = draw(st.one_of(st.integers(0, max_band), st.sampled_from([31, 32])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pairs = []
    for _ in range(draw(st.integers(1, max_pairs))):
        query = rng.integers(0, 4, draw(st.integers(0, max_len)))
        if draw(st.booleans()):
            target = _mutated(rng, query, draw(st.integers(0, band + 3)))
        else:
            target = rng.integers(0, 4, draw(st.integers(0, max_len)))
        pairs.append((query, target))
    return band, pairs


#: Past-the-end sentinel per input dtype (uint8 has no -1).
_SENTINELS = {np.uint8: 255, np.int16: -1, np.int64: -1}


def _padded(strands, dtype=np.int16):
    width = max([strand.size for strand in strands] + [1])
    stack = np.full((len(strands), width), _SENTINELS[dtype], dtype=dtype)
    for k, strand in enumerate(strands):
        stack[k, :strand.size] = strand
    return stack, np.array([strand.size for strand in strands])


def _both_kernels(queries, targets, band, dtype=np.int16):
    """(live, frozen) distances for the pairs ``zip(queries, targets)``."""
    args = (*_padded(queries, dtype), *_padded(targets, dtype), band)
    return (banded_edit_distances_stack(*args),
            banded_edit_distances_stack_reference(*args))


class TestStackMatchesFrozenDP:
    """The bit-parallel kernel returns exactly what the frozen DP does."""

    @settings(max_examples=80, deadline=None)
    @given(pair_stacks(max_len=160),
           st.sampled_from([np.uint8, np.int16, np.int64]))
    def test_matches_frozen_dp(self, case, dtype):
        band, pairs = case
        live, frozen = _both_kernels(*zip(*pairs), band, dtype)
        np.testing.assert_array_equal(live, frozen)

    @settings(max_examples=10, deadline=None)
    @given(pair_stacks(max_len=800, max_pairs=3))
    def test_paper_scale_lengths(self, case):
        band, pairs = case
        live, frozen = _both_kernels(*zip(*pairs), band)
        np.testing.assert_array_equal(live, frozen)

    @pytest.mark.parametrize("band", [0, 1, 7, 31, 32, 63, 70])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_length_gap_at_band_edge(self, rng, band, extra):
        """``gap`` inserted bases make the distance exactly ``gap``: a
        gap of ``band`` is still inside the band, ``band + 1`` is not."""
        gap = band + extra
        queries, targets = [], []
        for _ in range(6):
            short = rng.integers(0, 4, int(rng.integers(0, 120)))
            long = short.copy()
            for _ in range(gap):
                pos = int(rng.integers(0, long.size + 1))
                long = np.insert(long, pos, rng.integers(4))
            queries += [short, long]
            targets += [long, short]
        live, frozen = _both_kernels(queries, targets, band)
        np.testing.assert_array_equal(live, frozen)
        assert (live == min(gap, band + 1)).all()

    @pytest.mark.parametrize("band", [0, 3, 31, 32, 70])
    def test_empty_queries_and_targets(self, rng, band):
        empty = np.zeros(0, dtype=np.int64)
        others = [rng.integers(0, 4, n) for n in range(band + 3)]
        queries = [empty] * len(others) + others
        targets = others + [empty] * len(others)
        live, frozen = _both_kernels(queries, targets, band)
        np.testing.assert_array_equal(live, frozen)
        sizes = np.array([other.size for other in others] * 2)
        np.testing.assert_array_equal(live, np.minimum(sizes, band + 1))

    @settings(max_examples=30, deadline=None)
    @given(pair_stacks(max_len=140))
    def test_read_only_broadcast_targets(self, case):
        """The greedy scan and the primer selector pass one target row
        broadcast (read-only, zero strides) across the stack."""
        band, pairs = case
        queries, qlen = _padded([query for query, _ in pairs])
        founder, founder_len = _padded([pairs[0][1]])
        targets = np.broadcast_to(founder[0], (len(pairs), founder.shape[1]))
        assert not targets.flags.writeable
        tlen = np.full(len(pairs), founder_len[0])
        np.testing.assert_array_equal(
            banded_edit_distances_stack(queries, qlen, targets, tlen, band),
            banded_edit_distances_stack_reference(queries, qlen, targets,
                                                  tlen, band),
        )

    @settings(max_examples=40, deadline=None)
    @given(pair_stacks(max_len=120, max_pairs=1))
    def test_one_pair_call_matches_frozen_loop(self, case):
        band, [(query, target)] = case
        assert banded_edit_distance_indices(query, target, band) \
            == banded_edit_distance_indices_reference(query, target, band)


def pool_read_batch(seed=3):
    """One unlabeled pool shaped like the repo benchmark's pool read:
    ``MatrixConfig()`` strands (L=124), 6% IDS errors, coverage 10
    (~2.5k reads)."""
    store = DnaStore(PipelineConfig(matrix=MatrixConfig()))
    rng = np.random.default_rng(seed)
    image = store.encode(
        rng.integers(0, 2, store.unit_capacity_bits).astype(np.uint8)
    )
    simulator = SequencingSimulator(ErrorModel.uniform(0.06),
                                    FixedCoverage(10))
    return simulator.sequence_store(image, rng=seed, labeled=False)


@pytest.mark.slow
@pytest.mark.parametrize("clusterer_cls", [LSHClusterer,
                                           BatchedGreedyClusterer])
def test_partitions_identical_on_frozen_dp(clusterer_cls, monkeypatch):
    """Swapping the frozen DP in under either clusterer changes neither
    the assignment nor any ``cluster.*`` counter (LSH bins, candidate
    and verified pairs; greedy DP comparisons)."""
    batch = pool_read_batch()
    clusterer = clusterer_cls.for_strand_length(
        MatrixConfig().strand_length)

    def assign():
        tracer = Tracer()
        with use_tracer(tracer):
            assignment, n_clusters = clusterer.assign(batch)
        counters = tracer.metrics.snapshot()["counters"]
        return assignment, n_clusters, {
            name: value for name, value in counters.items()
            if name.startswith("cluster.")
        }

    live = assign()
    monkeypatch.setattr(importlib.import_module(clusterer_cls.__module__),
                        "banded_edit_distances_stack",
                        banded_edit_distances_stack_reference)
    frozen = assign()
    np.testing.assert_array_equal(live[0], frozen[0])
    assert live[1:] == frozen[1:]
    assert live[2]["cluster.reads_in"] == batch.n_reads > 2000
