"""Bit-priority rankings for DnaMapper (the paper's Section 5.3).

A *ranking* is a permutation ``rank`` of bit indices: ``rank[q]`` is the
index (in the packed input stream) of the bit with priority ``q`` (0 =
most important). The encoder stores bit ``rank[q]`` at the ``q``-th most
reliable location; the decoder inverts the permutation.

Provided heuristics:

* :func:`identity_ranking` — the baseline (no prioritization), and also
  the paper's zero-metadata positional heuristic for a single file:
  earlier bits are more important (JPEG entropy coding makes later bits
  depend on earlier ones), so priority equals file position and the
  *placement*, not the ranking, does the work.
* :func:`proportional_share_ranking` — the paper's multi-file heuristic
  (Section 6.1.1): every file receives a share of each reliability class
  proportional to its size, so all files degrade in step; designated
  top-priority regions (the directory) come first.
* :func:`oracle_ranking` — the brute-force PSNR ranking of Section 7.3,
  used only to benchmark the heuristic (Figure 16): flip every bit,
  measure the quality loss, sort.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.media.jpeg import JpegCodec
from repro.media.psnr import quality_loss_db
from repro.utils.bitio import bits_to_bytes, bytes_to_bits


def identity_ranking(n_bits: int) -> np.ndarray:
    """No prioritization: priority order equals stream order."""
    if n_bits < 0:
        raise ValueError(f"n_bits must be non-negative, got {n_bits}")
    return np.arange(n_bits, dtype=np.int64)


def proportional_share_ranking(
    segment_bits: Sequence[int],
    top_priority_segments: Sequence[int] = (),
) -> np.ndarray:
    """Interleave several files so each gets its proportional share.

    Args:
        segment_bits: bit length of each file (segment) in stream order.
        top_priority_segments: indices of segments whose *entire* content
            outranks everything else (the paper gives the directory file
            the highest priority for all of its bits), in the given order.

    Returns:
        The permutation ``rank`` over the concatenated stream: within each
        file bits keep their order; across files, bit ``j`` of file ``f``
        is ranked by its fractional position ``j / n_f``, so the high-order
        bits of all files land in the strongest reliability classes
        together and every file degrades proportionally.
    """
    segment_bits = [int(n) for n in segment_bits]
    if any(n < 0 for n in segment_bits):
        raise ValueError("segment sizes must be non-negative")
    top_set = list(dict.fromkeys(int(i) for i in top_priority_segments))
    for index in top_set:
        if not (0 <= index < len(segment_bits)):
            raise ValueError(f"top-priority segment {index} out of range")
    offsets = np.concatenate([[0], np.cumsum(segment_bits)])[:-1]

    pieces = []
    for index in top_set:
        pieces.append(offsets[index] + np.arange(segment_bits[index]))
    ordinary = [
        i for i in range(len(segment_bits)) if i not in top_set and segment_bits[i] > 0
    ]
    if ordinary:
        keys = np.concatenate([
            (np.arange(segment_bits[i]) + 0.5) / segment_bits[i] for i in ordinary
        ])
        indices = np.concatenate([
            offsets[i] + np.arange(segment_bits[i]) for i in ordinary
        ])
        # Stable sort by fractional position keeps within-file order and
        # breaks cross-file ties by stream order.
        pieces.append(indices[np.argsort(keys, kind="stable")])
    if not pieces:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(pieces).astype(np.int64)


def oracle_ranking(
    compressed: bytes,
    codec: Optional[JpegCodec] = None,
    original: Optional[np.ndarray] = None,
    loss_for_failure: float = 60.0,
    progress: Optional[Callable[[int, int], None]] = None,
) -> np.ndarray:
    """Brute-force ranking: flip each bit, measure PSNR loss, sort.

    This is the paper's "oracle" of Section 7.3: computationally expensive
    (one decode per bit) and requiring the ranking itself to be stored as
    metadata — evaluated only to show the positional heuristic is close.

    Args:
        compressed: the compressed image file.
        codec: decoder (defaults to a fresh :class:`JpegCodec`).
        original: reference image; defaults to the clean decode.
        loss_for_failure: loss assigned when a flip makes the file
            undecodable (shape change or header loss).
        progress: optional callback ``(done, total)``.

    Returns:
        Permutation with the most damaging bit first. Ties (zero-loss
        bits) keep file order, which matches the positional heuristic.
    """
    codec = codec or JpegCodec()
    clean, _ = codec.decode_robust(compressed)
    reference = clean if original is None else np.asarray(original)
    bits = bytes_to_bits(compressed)
    n = len(bits)
    losses = np.zeros(n, dtype=np.float64)
    for i in range(n):
        flipped = bits.copy()
        flipped[i] ^= 1
        image, _ = codec.decode_robust(bits_to_bytes(flipped))
        if image.shape != clean.shape:
            losses[i] = loss_for_failure
        else:
            losses[i] = quality_loss_db(reference, clean, image)
        if progress is not None:
            progress(i + 1, n)
    return np.argsort(-losses, kind="stable").astype(np.int64)
