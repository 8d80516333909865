"""Levenshtein (edit) distance — full and banded variants.

Edit distance is the similarity metric of DNA storage clustering (the
minimum number of insertions, deletions and substitutions converting one
string into the other). The banded variant bounds the alignment to a
diagonal band of half-width ``band`` and is what the clusterers use,
since reads of the same cluster differ by a small number of edits.

Every variant is one kernel, :func:`banded_edit_distances_stack`:
Myers' bit-parallel edit distance (J. ACM 1999) in Hyyrö's
diagonal-band form (Nordic J. Computing 2003), one stack of pairs per
call. The one-pair calls are its one-element case, and the exact
distance is the banded one with a band as wide as the longer string.
The integer DP it replaced is frozen in ``tests/oracles/cluster.py`` as
the differential reference.
"""

from __future__ import annotations

import numpy as np

from repro.codec.basemap import bases_to_indices


def edit_distance(a: str, b: str) -> int:
    """Exact Levenshtein distance between two DNA strings."""
    return edit_distance_indices(
        bases_to_indices(a) if a else np.zeros(0, dtype=np.uint8),
        bases_to_indices(b) if b else np.zeros(0, dtype=np.uint8),
    )


def edit_distance_indices(a: np.ndarray, b: np.ndarray) -> int:
    """Exact Levenshtein distance between two symbol-index arrays.

    The distance never exceeds the longer length, so the banded
    distance with a band that wide is exact.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    return banded_edit_distance_indices(a, b, max(a.size, b.size))


def banded_edit_distance_indices(a: np.ndarray, b: np.ndarray,
                                 band: int) -> int:
    """Edit distance restricted to a diagonal band of half-width ``band``.

    Returns the exact distance when it is at most ``band``; otherwise
    returns a value strictly greater than ``band`` (a certificate that
    the arrays are farther apart than the band, not the true distance).
    This is the one-pair case of :func:`banded_edit_distances_stack`,
    except that a length gap beyond the band returns the gap itself
    (still a certificate, and a tighter one than ``band + 1``).
    """
    a = np.asarray(a).reshape(1, -1)
    b = np.asarray(b).reshape(1, -1)
    gap = abs(a.size - b.size)
    if gap > band >= 0:  # a negative band is the kernel's to reject
        return gap
    return int(banded_edit_distances_stack(a, [a.size], b, [b.size], band)[0])


#: Cells (pair x target row x lane bit, one byte each) of the boolean
#: match cube built per block of target rows: bounds the kernel's scratch
#: memory whatever the stack size, band or strand length.
_MATCH_BLOCK_CELLS = 1 << 20


def _lanes(pattern: int, lane_bytes: int, n_lanes: int) -> int:
    """One lane's bit ``pattern`` repeated in each of ``n_lanes`` lanes."""
    return int.from_bytes(pattern.to_bytes(lane_bytes, "little") * n_lanes,
                          "little")


def _snapshot(values, size: int) -> bytes:
    return b"".join(value.to_bytes(size, "little") for value in values)


def banded_edit_distances_stack(
    queries: np.ndarray,
    query_lengths: np.ndarray,
    targets: np.ndarray,
    target_lengths: np.ndarray,
    band: int,
) -> np.ndarray:
    """Banded edit distance for a whole stack of pairs, advanced in lockstep.

    Pair ``k`` compares ``queries[k, :query_lengths[k]]`` against
    ``targets[k, :target_lengths[k]]``; entries past a sequence's end are
    never read into a result (sentinels such as the ``-1`` of
    :meth:`~repro.channel.readbatch.ReadBatch.padded_matrix` are fine).
    Returns one ``int64`` per pair: ``min(distance, band + 1)`` — exact
    when at most ``band``, ``band + 1`` otherwise, the
    :func:`banded_edit_distance_indices` contract.

    Bit-parallel (Myers, J. ACM 1999; diagonal band per Hyyrö, Nordic J.
    Computing 2003), one target row per step for every pair at once:

    * **Layout.** Cell ``d`` of row ``i``'s band is query column ``i + d
      - band``. Each pair owns one lane of a single Python ``int``: the
      band's ``2 * band + 1`` cells, a guard bit for the adder's carry,
      and room for the lane's diagonal count. The state is the +1 / -1
      vertical-delta vectors ``pv`` / ``mv``, kept aligned for the next
      row; masking with the band keeps shifts and carries in their
      lanes. A row costs 18 big-integer operations for any stack or band.
    * **Boundary cells.** A cell outside the band takes its neighbour's
      value + 1: a +1 vertical delta enters at the lower edge (``pv``'s
      top bit stays set) and a +1 horizontal carry at the upper edge
      (the adder's carry-in is zero); virtual columns ``j <= 0`` hold
      ``i - j``. No value is below the true distance, and it is exact
      whenever the distance is at most ``band``.
    * **Readout.** Pair ``k`` is read at its own final row: the band's
      top cell (``band + i`` minus the rows whose top cell kept its
      diagonal value, counted per lane) plus the vertical deltas down to
      query column ``query_lengths[k]``.
    * **Match masks** (query window == target base) come from numpy in
      blocks of rows, at most ``_MATCH_BLOCK_CELLS`` cells at a time.

    The integer DP this replaced is frozen in ``tests/oracles/cluster.py``,
    and the differential suite pins the two value for value.
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
    n = active.size
    rows = tlen[active]
    max_rows = int(rows.max())
    width = 2 * band + 1
    lane_bytes = -(-max(width + 1, max_rows.bit_length()) // 8)
    lane_bits = 8 * lane_bytes
    row_bytes = n * lane_bytes
    in_band = _lanes((1 << width) - 1, lane_bytes, n)
    top = _lanes(1, lane_bytes, n)
    # Row 0 is D[0, j] = |j|, aligned for row 1 (bit d is the delta into
    # query column 1 + d - band): -1 up to column 0, +1 after it.
    pv = _lanes(((1 << (band + 1)) - 1) << band, lane_bytes, n)
    mv = _lanes((1 << band) - 1, lane_bytes, n)
    # Per lane: rows whose top band cell equals its diagonal predecessor.
    kept = 0
    stop_rows = np.unique(rows)
    stops = set(stop_rows.tolist())
    snapshots = [_snapshot((pv, mv, kept), row_bytes)] if 0 in stops else []
    # Query stack shifted right by ``band`` in a zero pad: the band of
    # target row i (query columns i - band .. i + band) starts at padded
    # column i - 1, and one lane-wide window from there covers it.
    padded = np.zeros((n, max(qw + band, max_rows + lane_bits)),
                      dtype=np.result_type(queries.dtype, targets.dtype))
    padded[:, band: band + qw] = queries[active]
    windows = np.lib.stride_tricks.sliding_window_view(padded, lane_bits,
                                                       axis=1)
    t_active = targets[active]
    band_bytes = np.frombuffer(
        ((1 << width) - 1).to_bytes(lane_bytes, "little"), dtype=np.uint8
    )
    block = max(1, _MATCH_BLOCK_CELLS // (n * lane_bits))
    i = 0
    for r0 in range(0, max_rows, block):
        r1 = min(max_rows, r0 + block)
        hits = windows[:, r0:r1] == t_active[:, r0:r1, None]
        masks = np.packbits(hits.reshape(-1), bitorder="little").reshape(
            n, r1 - r0, lane_bytes).transpose(1, 0, 2) & band_bytes
        masks = memoryview(masks.tobytes())
        for offset in range(0, len(masks), row_bytes):
            eq = int.from_bytes(masks[offset: offset + row_bytes], "little")
            xv = eq | mv
            kept += xv & top
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (in_band ^ (xh | pv))
            mh = pv & xh
            xv >>= 1
            pv = mh | (in_band ^ ((xv | ph) & in_band))
            mv = ph & xv & in_band
            i += 1
            if i in stops:
                snapshots.append(_snapshot((pv, mv, kept), row_bytes))
    # (pair, [pv, mv, kept], lane byte) of every pair at its final row.
    lanes = np.frombuffer(b"".join(snapshots), dtype=np.uint8).reshape(
        len(snapshots), 3, n, lane_bytes
    )[np.searchsorted(stop_rows, rows), :, np.arange(n)]
    deltas = np.unpackbits(lanes[:, :2], axis=2, count=width,
                           bitorder="little").astype(np.int64)
    above = np.arange(width) < (qlen[active] - rows + band)[:, None]
    climb = ((deltas[:, 0] - deltas[:, 1]) * above).sum(axis=1)
    count_bytes = min(lane_bytes, 8)
    kept = lanes[:, 2, :count_bytes].astype(np.int64) \
        @ (np.int64(1) << (8 * np.arange(count_bytes, dtype=np.int64)))
    results[active] = np.minimum(band + rows - kept + climb, big)
    return results
