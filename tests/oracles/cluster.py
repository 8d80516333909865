"""Frozen clustering references: greedy scan and banded edit-distance DP.

These are the original per-read, per-character greedy clusterer and the
integer banded DPs it and the columnar clusterers ran on, kept verbatim
— like the per-cluster reconstructors in :mod:`oracles.consensus` and
the per-unit store loop in :mod:`oracles.core` — as the baselines the
clustering subsystem is pinned against:

* :func:`_qgram_signature` is the per-character rolling-code loop the
  vectorized kernel (:mod:`repro.cluster.signatures`) must reproduce bit
  for bit;
* :class:`ReferenceGreedyClusterer` is the sequential first-match greedy
  scan whose cluster assignments
  :class:`~repro.cluster.batched.BatchedGreedyClusterer` must reproduce
  exactly (``tests/cluster/test_batched.py``); it runs on the frozen
  per-row DP below, never on the kernel under test;
* :func:`banded_edit_distances_stack_reference` is the integer banded
  DP (``np.minimum.accumulate`` rows with early bail-out) that the
  bit-parallel :func:`repro.cluster.distance.banded_edit_distances_stack`
  must match value for value (``tests/cluster/test_distance.py``), and
  :func:`banded_edit_distance_indices_reference` /
  :func:`banded_edit_distance_reference` its one-pair per-row loop and
  string wrapper. Only the names carry a ``_reference`` suffix.

Do not optimize this module; it exists to stay slow and obviously
correct.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.channel.sequencer import ReadCluster
from repro.codec.basemap import bases_to_indices


def _qgram_signature(read: str, q: int = 3) -> np.ndarray:
    """Histogram of q-gram codes; L1 distance lower-bounds edit moves."""
    if len(read) < q:
        return np.zeros(4**q, dtype=np.int32)
    codes = np.zeros(4**q, dtype=np.int32)
    value = 0
    mapping = {"A": 0, "C": 1, "G": 2, "T": 3}
    mask = 4 ** (q - 1)
    for i, char in enumerate(read):
        value = (value % mask) * 4 + mapping[char]
        if i >= q - 1:
            codes[value] += 1
    return codes


def banded_edit_distance_reference(a: str, b: str, band: int) -> int:
    """Edit distance restricted to a diagonal band of half-width ``band``.

    Returns the exact distance when it is at most ``band``; otherwise
    returns a value strictly greater than ``band`` (a certificate that the
    strings are farther apart than the band, not the true distance). The
    length difference alone decides when it already exceeds the band.
    """
    if band < 0:
        raise ValueError(f"band must be non-negative, got {band}")
    return banded_edit_distance_indices_reference(
        bases_to_indices(a) if a else np.zeros(0, dtype=np.uint8),
        bases_to_indices(b) if b else np.zeros(0, dtype=np.uint8),
        band,
    )


def banded_edit_distance_indices_reference(a: np.ndarray, b: np.ndarray,
                                           band: int) -> int:
    """Banded edit distance between two symbol-index arrays.

    Same contract as :func:`banded_edit_distance`; the batched clustering
    path calls this directly so no string ever materializes. The
    horizontal (insertion) pass uses the same ``np.minimum.accumulate``
    offset trick as :func:`edit_distance_indices` — with unit gap costs,
    ``row[j] = min_k<=j (cand[k] + j - k)`` — instead of a per-cell
    Python loop over the band.
    """
    if band < 0:
        raise ValueError(f"band must be non-negative, got {band}")
    a = np.asarray(a)
    b = np.asarray(b)
    n, m = a.size, b.size
    if abs(n - m) > band:
        return abs(n - m)
    if n == 0 or m == 0:
        return max(n, m)
    big = band + 1
    # row[j] for j in [max(0, i-band), min(m, i+band)] kept in a dense array.
    previous = np.full(m + 1, big, dtype=np.int64)
    upper = min(m, band)
    previous[: upper + 1] = np.arange(upper + 1)
    for i in range(1, n + 1):
        current = np.full(m + 1, big, dtype=np.int64)
        low = max(1, i - band)
        high = min(m, i + band)
        if i <= band:
            current[0] = i
        segment = np.minimum(
            previous[low - 1: high] + (b[low - 1: high] != a[i - 1]),
            previous[low: high + 1] + 1,
        )
        window = np.empty(high - low + 2, dtype=np.int64)
        window[0] = current[low - 1]
        window[1:] = segment
        offsets = np.arange(window.size, dtype=np.int64)
        current[low - 1: high + 1] = \
            np.minimum.accumulate(window - offsets) + offsets
        previous = current
        if previous[max(0, i - band): min(m, i + band) + 1].min() > band:
            return big  # the whole band exceeded the threshold; bail out
    return int(min(previous[m], big))


def banded_edit_distances_stack_reference(
    queries: np.ndarray,
    query_lengths: np.ndarray,
    targets: np.ndarray,
    target_lengths: np.ndarray,
    band: int,
) -> np.ndarray:
    """Banded edit distance for a whole stack of pairs, advanced in lockstep.

    Pair ``k`` compares ``queries[k, :query_lengths[k]]`` against
    ``targets[k, :target_lengths[k]]``; entries past a sequence's end are
    sentinels (any value that matches nothing, e.g. ``-1`` from
    :meth:`~repro.channel.readbatch.ReadBatch.padded_matrix`). Returns one
    ``int64`` distance per pair under the :func:`banded_edit_distance`
    contract: exact when at most ``band``, some value strictly greater
    than ``band`` otherwise.

    This is the clustering counterpart of
    ``consensus.iterative._edit_matrix_stack``, kept truly *banded*: the
    rolling DP row holds only the ``2 * band + 1`` diagonal-band cells of
    every pair. In band coordinates cell ``d`` of target row ``i`` is
    query column ``j = i + d - band``, so the diagonal predecessor stays
    at ``d``, the vertical one at ``d + 1``, the horizontal pass is the
    usual ``np.minimum.accumulate`` offset trick along ``d`` — and
    because every pair shares the row index ``i``, the band's query
    window is one contiguous slice of the (sentinel-padded) query stack,
    no per-row gather. Pairs drop out of the active stack as soon as
    they finish (their target is exhausted) or bail out (their entire
    band row exceeds ``band`` — row minima are non-decreasing, so the
    final distance can only be larger).
    """
    if band < 0:
        raise ValueError(f"band must be non-negative, got {band}")
    queries = np.asarray(queries)
    targets = np.asarray(targets)
    qlen = np.asarray(query_lengths, dtype=np.int64)
    tlen = np.asarray(target_lengths, dtype=np.int64)
    n_pairs, qw = queries.shape if queries.ndim == 2 else (0, 0)
    if not (qlen.shape == tlen.shape == (n_pairs,)):
        raise ValueError("lengths must align with the query/target stacks")
    big = band + 1
    results = np.full(n_pairs, big, dtype=np.int64)
    # Pairs whose length gap alone exceeds the band can never return.
    active = np.flatnonzero(np.abs(qlen - tlen) <= band)
    if active.size == 0:
        return results
    width = 2 * band + 1
    #: Acts as +infinity: out-of-band cells must lose every minimum.
    huge = np.int32(1 << 20)
    # Query stack shifted right by ``band`` inside a sentinel pad, so the
    # band window of target row ``i`` (query columns ``i - band .. i +
    # band``, char of column ``j`` at padded index ``j - 1 + band``) is
    # the plain slice ``[i - 1 : i - 1 + width]``.
    max_rows = int(tlen[active].max())
    padded = np.full((active.size, max(qw, max_rows) + 2 * band),
                     -1, dtype=np.int16)
    padded[:, band: band + qw] = queries[active]
    t_active = np.ascontiguousarray(targets[active], dtype=np.int16)
    # Row 0 in band coordinates: D[0, j] = j inside the band, +inf left
    # of it; one spare +inf column on the right serves as the vertical
    # predecessor of the band's right edge.
    row = np.empty((active.size, width + 1), dtype=np.int32)
    row[:, :band] = huge
    row[:, band:] = np.arange(band + 2, dtype=np.int32)
    row[:, width] = huge
    offsets = np.arange(width, dtype=np.int32)
    finished = tlen[active] == 0
    if finished.any():
        done = active[finished]
        results[done] = np.minimum(row[finished, qlen[done] + band], big)
        keep = ~finished
        active, row = active[keep], row[keep]
        padded, t_active = padded[keep], t_active[keep]
    i = 0
    while active.size:
        i += 1
        substitution = padded[:, i - 1: i - 1 + width] \
            != t_active[:, i - 1, None]
        candidates = np.minimum(
            row[:, :width] + substitution, row[:, 1:] + 1
        )
        row[:, :width] = np.minimum.accumulate(
            candidates - offsets, axis=1
        ) + offsets
        if i <= band:
            # Cells left of query column 0 exist only as padding; force
            # them back to +inf so nothing leaks in from outside.
            row[:, : band - i] = huge
        finished = tlen[active] == i
        if finished.any():
            done = active[finished]
            d = qlen[done] - i + band  # |qlen - tlen| <= band keeps d valid
            results[done] = np.minimum(row[finished, d], big)
        # Early bail-out: a pair whose whole band row exceeds the band
        # can never come back under it (row minima are non-decreasing).
        keep = ~finished & (row[:, :width].min(axis=1) <= band)
        if not keep.all():
            active, row = active[keep], row[keep]
            padded, t_active = padded[keep], t_active[keep]
    return results


class ReferenceGreedyClusterer:
    """Single-pass greedy clustering by banded edit distance (frozen).

    Args:
        threshold: maximum edit distance to a cluster representative.
        qgram_size: q-gram length for the prefilter (0 disables it).
    """

    def __init__(self, threshold: int, qgram_size: int = 3) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        if qgram_size < 0:
            raise ValueError(f"qgram_size must be non-negative, got {qgram_size}")
        self.threshold = threshold
        self.qgram_size = qgram_size

    def cluster(self, reads: Sequence[str]) -> List[ReadCluster]:
        """Group reads into clusters; cluster ids are assigned in order.

        The returned clusters carry ``source_index`` equal to their creation
        order (there is no ground truth here).
        """
        representatives: List[str] = []
        signatures: List[Optional[np.ndarray]] = []
        members: List[List[str]] = []
        for read in reads:
            assigned = self._find_cluster(read, representatives, signatures)
            if assigned is None:
                representatives.append(read)
                signatures.append(
                    _qgram_signature(read, self.qgram_size)
                    if self.qgram_size else None
                )
                members.append([read])
            else:
                members[assigned].append(read)
        return [
            ReadCluster(source_index=index, reads=cluster_reads)
            for index, cluster_reads in enumerate(members)
        ]

    def _find_cluster(
        self,
        read: str,
        representatives: List[str],
        signatures: List[Optional[np.ndarray]],
    ) -> Optional[int]:
        signature = (
            _qgram_signature(read, self.qgram_size) if self.qgram_size else None
        )
        for index, representative in enumerate(representatives):
            if signature is not None and signatures[index] is not None:
                # Each edit changes at most 2*q q-gram counts (q new grams
                # appear / q disappear), so L1/(2q) lower-bounds the distance.
                l1 = int(np.abs(signature - signatures[index]).sum())
                if l1 > 2 * self.qgram_size * self.threshold:
                    continue
            distance = banded_edit_distance_reference(
                read, representative, self.threshold
            )
            if distance <= self.threshold:
                return index
        return None
