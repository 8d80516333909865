"""Frozen batched IDS pass (the channel layer's differential oracle).

:func:`batched_ids_pass_reference` is the one-draw vectorized IDS pass as
it stood before the engine's memory was slimmed: every per-base array
(the ``int64`` emission counts, their cumsum, the emission starts, the
``bounds`` copy used for per-read lengths) stays alive until the pass
returns, and ``draws`` is kept to the end. It is kept verbatim so the
live :func:`repro.channel.engine.batched_ids_pass` stays pinned byte for
byte — output bases, per-read lengths and the generator state after the
call — by ``tests/channel/test_engine_oracle.py``. It consumes the RNG
stream the engine's module docstring documents (one ``random(total)``
draw, then substitution offsets, then inserted bases).

Do not optimize this module; it exists to stay obviously correct.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.channel.engine import ErrorRateMap, RateSpec
from repro.utils.rng import RngLike, ensure_rng


def batched_ids_pass_reference(
    template_buffer: np.ndarray,
    template_offsets: np.ndarray,
    template_lengths: np.ndarray,
    template_of_read: np.ndarray,
    rates: RateSpec,
    rng: RngLike = None,
    n_alphabet: int = 4,
) -> Tuple[np.ndarray, np.ndarray]:
    """One vectorized IDS pass emitting every requested read.

    Read ``i`` is a noisy copy of template ``template_of_read[i]``. Returns
    ``(out_buffer, out_lengths)``: the emitted bases of all reads back to
    back (read order, ``uint8``) and each read's emitted length.
    """
    if n_alphabet < 2:
        raise ValueError(f"n_alphabet must be >= 2, got {n_alphabet}")
    generator = ensure_rng(rng)
    template_of_read = np.asarray(template_of_read, dtype=np.int64)
    n_reads = template_of_read.size
    in_lengths = template_lengths[template_of_read]
    total = int(in_lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.uint8), np.zeros(n_reads, dtype=np.int64)

    # Flat-base geometry. The per-base read/position bookkeeping is only
    # needed for positional rate maps; the scalar-model path just gathers
    # the input bases (one row gather when all templates share a length).
    in_starts = np.cumsum(in_lengths) - in_lengths
    length0 = int(template_lengths[0]) if template_lengths.size else 0
    uniform = (
        template_lengths.size > 0
        and template_buffer.size == template_lengths.size * length0
        and np.all(template_lengths == length0)
        and np.array_equal(
            template_offsets,
            np.arange(template_lengths.size, dtype=np.int64) * length0,
        )
    )
    if uniform and length0 > 0:
        inp = template_buffer.reshape(-1, length0)[template_of_read].reshape(-1)
    else:
        read_of_base = np.repeat(
            np.arange(n_reads, dtype=np.int64), in_lengths
        )
        position = np.arange(total, dtype=np.int64) - in_starts[read_of_base]
        strand_of_base = template_of_read[read_of_base]
        inp = template_buffer[template_offsets[strand_of_base] + position]

    if isinstance(rates, ErrorRateMap):
        if uniform and length0 > 0:
            position = np.tile(
                np.arange(length0, dtype=np.int64), n_reads
            )
            strand_of_base = np.repeat(template_of_read, length0)
        p_del, p_ins, p_sub = rates.per_base(strand_of_base, position)
        noiseless = False
    else:
        p_del = rates.p_deletion
        p_ins = rates.p_insertion
        p_sub = rates.p_substitution
        noiseless = rates.is_noiseless
    if noiseless:
        return inp.copy(), in_lengths.astype(np.int64)

    # Single RNG draw over every template base of the whole batch; the
    # event classification matches ErrorModel.apply_indices exactly.
    draws = generator.random(total)
    deleted = draws < p_del
    inserted = (draws >= p_del) & (draws < p_del + p_ins)
    substituted = (draws >= p_del + p_ins) & (draws < p_del + p_ins + p_sub)

    emitted = inp.copy()
    n_subs = int(substituted.sum())
    if n_subs:
        offsets = generator.integers(1, n_alphabet, size=n_subs,
                                     dtype=np.uint8)
        emitted[substituted] = (emitted[substituted] + offsets) % n_alphabet

    # Each template base emits 0 (deletion), 1 (keep/substitute) or 2
    # (insertion: the random base, then the original) output bases; a
    # segmented cumsum over the whole batch places them.
    counts = np.ones(total, dtype=np.int64)
    counts[deleted] = 0
    counts[inserted] = 2
    ends = np.cumsum(counts)
    starts = ends - counts
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    survivors = ~deleted
    out[ends[survivors] - 1] = emitted[survivors]
    n_ins = int(inserted.sum())
    if n_ins:
        out[starts[inserted]] = generator.integers(
            0, n_alphabet, size=n_ins, dtype=np.uint8
        )
    # Per-read emitted lengths: differences of the emission cumsum at the
    # read boundaries (O(n_reads), no per-base reduction).
    bounds = np.concatenate([np.zeros(1, dtype=np.int64), ends])
    out_lengths = bounds[in_starts + in_lengths] - bounds[in_starts]
    return out, out_lengths
