"""Equivalence of the vectorized BMA scan with a naive reference.

The one-way scan is the repository's hottest loop and is fully
vectorized; this file pins its behaviour to a direct, obviously-correct
transliteration of the algorithm. Any future optimization must keep the
two byte-for-byte identical.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import ErrorModel, ReadBatch
from repro.consensus import OneWayReconstructor


def _one_cluster(reconstructor, reads, length):
    """The engine's estimate for ``reads`` as a one-cluster batch."""
    return reconstructor.reconstruct_batch(ReadBatch.from_arrays([reads]),
                                           length)[0]


def _reference_one_way(reads, length, lookahead=3, n_alphabet=4,
                       fill_symbol=0):
    """Naive per-read transliteration of the scan (kept deliberately slow)."""
    reads = [np.asarray(r, dtype=np.int64) for r in reads if len(r) > 0]
    output = np.full(length, fill_symbol, dtype=np.int64)
    if not reads or length == 0:
        return output
    pointers = [0] * len(reads)

    def estimate_lookahead(consensus):
        window = np.full(lookahead, -1, dtype=np.int64)
        for offset in range(1, lookahead + 1):
            counts = np.zeros(n_alphabet, dtype=np.int64)
            for read, pointer in zip(reads, pointers):
                if (pointer < len(read) and read[pointer] == consensus
                        and pointer + offset < len(read)):
                    counts[read[pointer + offset]] += 1
            if counts.sum() > 0:
                window[offset - 1] = int(np.argmax(counts))
        return window

    def score(read, start, window):
        total = 0
        for offset, expected in enumerate(window):
            if expected < 0:
                continue
            index = start + offset
            if index < len(read) and read[index] == expected:
                total += 1
        return total

    for position in range(length):
        counts = np.zeros(n_alphabet, dtype=np.int64)
        for read, pointer in zip(reads, pointers):
            if pointer < len(read):
                counts[read[pointer]] += 1
        if counts.sum() == 0:
            break
        consensus = int(np.argmax(counts))
        output[position] = consensus
        window = estimate_lookahead(consensus)
        for i, read in enumerate(reads):
            pointer = pointers[i]
            if pointer >= len(read):
                continue
            if read[pointer] == consensus:
                pointers[i] = pointer + 1
                continue
            substitution = score(read, pointer + 1, window)
            deletion = score(read, pointer, window)
            insertion = -1
            if pointer + 1 < len(read) and read[pointer + 1] == consensus:
                insertion = 1 + score(read, pointer + 2, window)
            advance, best = 1, substitution
            if deletion > best:
                advance, best = 0, deletion
            if insertion > best:
                advance = 2
            pointers[i] = pointer + advance
    return output


class TestVectorizedMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 8),
           st.floats(0.0, 0.25), st.integers(5, 60))
    def test_equivalence_random_clusters(self, seed, coverage, rate, length):
        rng = np.random.default_rng(seed)
        original = rng.integers(0, 4, length).astype(np.uint8)
        model = ErrorModel.uniform(rate)
        reads = [model.apply_indices(original, rng) for _ in range(coverage)]
        fast = _one_cluster(OneWayReconstructor(), reads, length)
        slow = _reference_one_way(reads, length)
        np.testing.assert_array_equal(fast, slow)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**9))
    def test_equivalence_binary(self, seed):
        rng = np.random.default_rng(seed)
        original = rng.integers(0, 2, 30).astype(np.uint8)
        model = ErrorModel.uniform(0.2)
        reads = [model.apply_indices(original, rng, n_alphabet=2)
                 for _ in range(4)]
        fast = _one_cluster(OneWayReconstructor(n_alphabet=2), reads, 30)
        slow = _reference_one_way(reads, 30, n_alphabet=2)
        np.testing.assert_array_equal(fast, slow)

    def test_equivalence_with_short_reads(self):
        reads = [np.array([0, 1], dtype=np.int64),
                 np.array([1], dtype=np.int64),
                 np.array([0, 1, 2, 3, 0, 1], dtype=np.int64)]
        fast = _one_cluster(OneWayReconstructor(), reads, 10)
        slow = _reference_one_way(reads, 10)
        np.testing.assert_array_equal(fast, slow)
