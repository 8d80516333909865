"""Vectorized k-mer (q-gram) signatures over the columnar read plane.

A read's q-gram signature is the histogram of its length-``q`` windows,
each window encoded as a base-4 integer; the L1 distance between two
signatures lower-bounds ``2 * q`` times their edit distance (one edit
creates/destroys at most ``q`` windows on each side), which is the
prefilter the greedy clusterers use to skip hopeless representative
comparisons.

The kernel here computes the signatures of *every read of a batch* in one
pass over the flat base buffer: rolling base-4 window codes as one
sliding-window dot product (no per-character Python loop, no dict
lookups), window validity (windows must not straddle a read boundary) as
one segmented comparison, and all reads' histograms via a single
``bincount`` over ``read * 4**q + code`` keys. A single read is the
one-read batch; every row is pinned against the frozen per-character
loop in ``tests/oracles/cluster.py`` by the differential suite.

Dense histograms are ``(n_reads, n_alphabet**q)`` and explode
combinatorially in ``q`` — a million reads at ``q=8`` would need a
quarter terabyte — so :func:`batch_signatures` enforces a byte budget.
The LSH clusterer's minhashes (:mod:`repro.cluster.lsh`), which run at
large ``q``, take the raw window codes of the kernel instead,
:func:`_valid_window_codes`, whose size follows the reads, not the code
space.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.channel.readbatch import ReadBatch, packed_bases

#: Anything the batch kernel accepts: a ReadBatch or a raw columnar
#: ``(buffer, offsets, lengths)`` triple.
ColumnarReads = Union[ReadBatch, Tuple[np.ndarray, np.ndarray, np.ndarray]]

#: Byte budget for one dense signature matrix (int32 cells). Generous for
#: every prefilter-sized ``q`` (a million reads at q=3 is 256 MB) while
#: catching the silent q >= 8 blow-ups long before the allocation.
DENSE_SIGNATURE_BYTE_BUDGET = 1 << 30


def rolling_qgram_codes(
    flat: np.ndarray, q: int, n_alphabet: int = 4
) -> np.ndarray:
    """Base-``n_alphabet`` codes of every length-``q`` window of ``flat``.

    Window ``i`` covers ``flat[i : i + q]``, big-endian (the first base is
    the most significant digit — the same code the per-character rolling
    loop of the frozen reference produces). Returns an ``int64`` array of
    ``len(flat) - q + 1`` codes (empty when ``flat`` is shorter than
    ``q``): one sliding-window dot product against the base-``n_alphabet``
    place values, exact in int64.
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    flat = np.asarray(flat)
    n_windows = flat.size - q + 1
    if n_windows <= 0:
        return np.zeros(0, dtype=np.int64)
    place_values = n_alphabet ** np.arange(q - 1, -1, -1, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.ascontiguousarray(flat, dtype=np.int64), q
    )
    return windows @ place_values


def _as_columnar(reads: ColumnarReads) -> Tuple[np.ndarray, np.ndarray,
                                                np.ndarray]:
    if isinstance(reads, ReadBatch):
        return reads.buffer, reads.offsets, reads.lengths
    buffer, offsets, lengths = reads
    return (np.asarray(buffer), np.asarray(offsets, dtype=np.int64),
            np.asarray(lengths, dtype=np.int64))


def _valid_window_codes(
    reads: ColumnarReads, q: int, n_alphabet: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(owners, codes, n_reads)`` of every in-read q-gram window.

    The shared kernel behind the dense signatures and the LSH minhashes
    (which need no histogram): reads are laid back to back
    (:func:`~repro.channel.readbatch.packed_bases`, a no-op when the
    batch already is tight), window codes roll across
    the whole buffer, and windows straddling a read boundary are masked
    out by one segmented comparison. ``owners`` is sorted ascending.
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    buffer, offsets, lengths = _as_columnar(reads)
    n_reads = lengths.size
    total = int(lengths.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, n_reads
    tight_starts = np.cumsum(lengths) - lengths
    read_of_base = np.repeat(np.arange(n_reads, dtype=np.int64), lengths)
    codes = rolling_qgram_codes(
        packed_bases(buffer, offsets, lengths), q, n_alphabet
    )
    if codes.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, n_reads
    # A window starting at flat position p belongs to read r iff it fits
    # entirely inside r: (p - start_r) + q <= len_r.
    owners = read_of_base[: codes.size]
    positions = np.arange(codes.size, dtype=np.int64)
    valid = positions - tight_starts[owners] + q <= lengths[owners]
    return owners[valid], codes[valid], n_reads


def batch_signatures(
    reads: ColumnarReads,
    q: int,
    n_alphabet: int = 4,
    max_bytes: int = DENSE_SIGNATURE_BYTE_BUDGET,
) -> np.ndarray:
    """Signatures of every read of a batch, ``(n_reads, n_alphabet**q)``.

    One pass over the flat base buffer: reads are gathered tight (a no-op
    when the batch already is), window codes roll across the whole
    buffer, windows straddling a read boundary are masked out by one
    segmented comparison, and every read's histogram comes from a single
    flat ``bincount``. Row ``i`` is the histogram of read ``i``'s
    q-gram codes; reads shorter than ``q`` give an all-zero row.

    The dense matrix costs ``n_reads * n_alphabet**q`` int32 cells
    regardless of how few of them are nonzero, so the call refuses (with
    a ``ValueError``) any request beyond ``max_bytes`` — at q >= 8 even
    modest pools cross a gigabyte.
    """
    buffer, offsets, lengths = _as_columnar(reads)
    n_reads = lengths.size
    n_bins = n_alphabet ** q if q > 0 else 0
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    dense_bytes = n_reads * n_bins * np.dtype(np.int32).itemsize
    if dense_bytes > max_bytes:
        raise ValueError(
            f"dense q-gram signatures for n_reads={n_reads}, q={q} need "
            f"{dense_bytes} bytes ({n_reads} x {n_bins} int32), over the "
            f"{max_bytes}-byte budget; lower q or raise max_bytes "
            f"explicitly"
        )
    owners, codes, n_reads = _valid_window_codes(
        (buffer, offsets, lengths), q, n_alphabet
    )
    if codes.size == 0:
        return np.zeros((n_reads, n_bins), dtype=np.int32)
    keys = owners * n_bins + codes
    counts = np.bincount(keys, minlength=n_reads * n_bins)
    return counts.reshape(n_reads, n_bins).astype(np.int32)


def l1_distances(signatures: np.ndarray, target: np.ndarray) -> np.ndarray:
    """L1 distance of every signature row to ``target``, one array op.

    ``l1 / (2 * q)`` lower-bounds the edit distance, so rows with
    ``l1 > 2 * q * threshold`` can be skipped without changing any greedy
    assignment.
    """
    return np.abs(signatures.astype(np.int64) - target.astype(np.int64)) \
        .sum(axis=1)
