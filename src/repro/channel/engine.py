"""Batched channel simulation: the whole IDS channel in one vectorized pass.

The per-read reference path (:meth:`repro.channel.errors.ErrorModel.
apply_indices` in a Python loop) draws randomness and assembles output one
noisy copy at a time. The engine here instead simulates *all reads of all
strands at once*: the emitted bases of the entire batch live in one flat
buffer, a single RNG draw covers every template base, and the variable-
length outputs are placed from the indices of the insertion and deletion
events. The decision logic per base is bit-identical to the reference —
the differential suite in ``tests/channel/test_engine.py`` replays the
engine's RNG stream through per-read reference calls and requires
byte-equal reads, and ``tests/channel/test_engine_oracle.py`` pins the
pass to its frozen cumsum-placed predecessor (``oracles.channel``).

RNG contract (what the differential tests rely on): for one IDS pass over
``total`` template bases the engine consumes, in order,

1. ``rng.random(total)`` — the per-base event draw;
2. ``rng.integers(1, n_alphabet, size=n_subs, dtype=uint8)`` — substitution
   offsets, in base order;
3. ``rng.integers(0, n_alphabet, size=n_ins, dtype=uint8)`` — inserted
   bases, in base order.

On top of the raw pass, :class:`BatchedChannelEngine` composes the pieces
of the paper's Section 6 methodology: coverage sampling (how many reads
each strand receives), the two-stage synthesis+sequencing channel of
Section 8 (synthesis errors mutate the molecule once; every read inherits
them), and per-strand/per-position error-rate maps
(:class:`ErrorRateMap`) for reliability-skew scenarios where the error
rate varies along the strand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.channel.coverage import CoverageModel, FixedCoverage
from repro.channel.errors import ErrorModel
from repro.channel.readbatch import ReadBatch
from repro.codec.basemap import bases_to_indices
from repro.observability.trace import get_tracer
from repro.utils.rng import RngLike, ensure_rng

#: Channel stages accept either a uniform per-position model or a
#: positional rate map.
RateSpec = Union[ErrorModel, "ErrorRateMap"]


@dataclass(frozen=True)
class ErrorRateMap:
    """Per-position (optionally per-strand) IDS error probabilities.

    Each attribute is either a ``(length,)`` array shared by every strand
    or an ``(n_strands, length)`` array with one row per strand; the three
    must share one shape. ``length`` must cover the longest template the
    map is applied to.

    Attributes:
        p_insertion: insertion probability per (strand,) position.
        p_deletion: deletion probability per (strand,) position.
        p_substitution: substitution probability per (strand,) position.
    """

    p_insertion: np.ndarray
    p_deletion: np.ndarray
    p_substitution: np.ndarray

    def __post_init__(self) -> None:
        for name in ("p_insertion", "p_deletion", "p_substitution"):
            array = np.asarray(getattr(self, name), dtype=np.float64)
            if array.ndim not in (1, 2):
                raise ValueError(f"{name} must be 1-D or 2-D")
            object.__setattr__(self, name, array)
        if not (self.p_insertion.shape == self.p_deletion.shape
                == self.p_substitution.shape):
            raise ValueError("rate maps must share one shape")
        total = self.p_insertion + self.p_deletion + self.p_substitution
        if np.any(self.p_insertion < 0) or np.any(self.p_deletion < 0) \
                or np.any(self.p_substitution < 0) or np.any(total > 1.0):
            raise ValueError("rates must be >= 0 with total <= 1 everywhere")

    @classmethod
    def scaled(cls, model: ErrorModel, weights: np.ndarray) -> "ErrorRateMap":
        """Scale a uniform model by per-position (or per-strand-position)
        weights — e.g. a ramp modeling end-of-strand degradation."""
        weights = np.asarray(weights, dtype=np.float64)
        return cls(
            p_insertion=model.p_insertion * weights,
            p_deletion=model.p_deletion * weights,
            p_substitution=model.p_substitution * weights,
        )

    @property
    def length(self) -> int:
        """Number of strand positions the map covers."""
        return int(self.p_insertion.shape[-1])

    def per_base(
        self, strand_of_base: np.ndarray, position_of_base: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resolve the three rates for each flat base of a batch.

        Positions beyond the map's range use the last position's rates:
        a synthesis stage with insertions can lengthen a molecule past
        the designed strand length the map was built for, and those
        overflow bases are physically "end of strand" conditions. (The
        engine validates the map against the *designed* template lengths
        up front, so a map that is simply too short still errors.)
        """
        position_of_base = np.minimum(position_of_base, self.length - 1)
        if self.p_insertion.ndim == 1:
            sel = (position_of_base,)
        else:
            if int(strand_of_base.max(initial=-1)) >= self.p_insertion.shape[0]:
                raise ValueError("rate map has fewer rows than strands")
            sel = (strand_of_base, position_of_base)
        return (self.p_deletion[sel], self.p_insertion[sel],
                self.p_substitution[sel])


# ---------------------------------------------------------------------------
# Columnar template sets and the raw batched IDS pass
# ---------------------------------------------------------------------------

def as_template_set(
    strands: Union[Sequence[str], Sequence[np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize strands into a columnar ``(buffer, offsets, lengths)`` set.

    Accepts ACGT strings (the one string->array conversion of the whole
    read plane), per-strand index arrays, or a 2-D index array of equal-
    length strands.
    """
    if isinstance(strands, np.ndarray) and strands.ndim == 2:
        n, length = strands.shape
        buffer = np.ascontiguousarray(strands, dtype=np.uint8).reshape(-1)
        lengths = np.full(n, length, dtype=np.int64)
        return buffer, np.arange(n, dtype=np.int64) * length, lengths
    arrays = [
        bases_to_indices(s) if isinstance(s, str)
        else np.asarray(s, dtype=np.uint8)
        for s in strands
    ]
    lengths = np.array([a.size for a in arrays], dtype=np.int64)
    buffer = (np.concatenate(arrays) if arrays
              else np.zeros(0, dtype=np.uint8))
    return buffer, np.cumsum(lengths) - lengths, lengths


def batched_ids_pass(
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

    Memory: each per-base array is freed after its last use. With a
    scalar model the pass peaks at the ``float64`` draws, three event
    masks and the ``uint8`` bases, ~13 B per template base (a
    mixed-length set's ``int64`` gather index comes and goes before the
    draw). The output is placed from the inserted and deleted bases'
    indices, a few words per event rather than per base. A rate map adds
    its three ``float64`` rates per base.
    ``tests/channel/test_engine_memory.py`` bounds the peak.
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

    read_ends = np.cumsum(in_lengths)
    read_starts = read_ends - in_lengths
    length0 = int(template_lengths[0])
    uniform = (
        template_buffer.size == template_lengths.size * length0
        and np.all(template_lengths == length0)
        and np.array_equal(
            template_offsets,
            np.arange(template_lengths.size, dtype=np.int64) * length0,
        )
    )
    # Every read's template bases back to back, in a fresh array: one row
    # gather when the templates share a length and tile the buffer.
    if uniform:
        emitted = template_buffer.reshape(-1, length0)[template_of_read]
        emitted = emitted.reshape(-1)
    else:
        at = np.repeat(template_offsets[template_of_read] - read_starts,
                       in_lengths)
        at += np.arange(total, dtype=np.int64)
        emitted = template_buffer[at]
        del at
    if isinstance(rates, ErrorRateMap):
        # Positional rates: each base's strand and in-strand position.
        p_del, p_ins, p_sub = rates.per_base(
            np.repeat(template_of_read, in_lengths),
            np.arange(total, dtype=np.int64)
            - np.repeat(read_starts, in_lengths),
        )
    elif rates.is_noiseless:
        return emitted, in_lengths.astype(np.int64)
    else:
        p_del = rates.p_deletion
        p_ins = rates.p_insertion
        p_sub = rates.p_substitution

    # Single RNG draw over every template base of the whole batch; the
    # event classification matches ErrorModel.apply_indices exactly.
    draws = generator.random(total)
    deleted = draws < p_del
    upper = p_del + p_ins
    inserted = draws >= p_del
    inserted &= draws < upper
    substituted = draws >= upper
    substituted &= draws < upper + p_sub
    del draws, p_del, p_ins, p_sub, upper

    n_subs = int(np.count_nonzero(substituted))
    if n_subs:
        offsets = generator.integers(1, n_alphabet, size=n_subs,
                                     dtype=np.uint8)
        emitted[substituted] = (emitted[substituted] + offsets) % n_alphabet
    del substituted

    # Each template base emits 0 (deletion), 1 (keep/substitute) or 2
    # (insertion: the random base, then the original) output bases. The
    # survivors go out in order, and each inserted base's random base
    # goes in front of its original, whose place among the survivors is
    # its own index less the deletions before it.
    inserted_at = np.flatnonzero(inserted)
    del inserted
    deleted_at = np.flatnonzero(deleted)
    out = emitted[np.logical_not(deleted, out=deleted)]
    del deleted, emitted
    if inserted_at.size:
        out = np.insert(
            out,
            inserted_at - np.searchsorted(deleted_at, inserted_at),
            generator.integers(0, n_alphabet, size=inserted_at.size,
                               dtype=np.uint8),
        )
    # Per-read emitted lengths: each read's end moves by the insertions
    # and deletions before it (O(n_reads log n_events)).
    out_ends = (read_ends + np.searchsorted(inserted_at, read_ends)
                - np.searchsorted(deleted_at, read_ends))
    return out, np.diff(out_ends, prepend=0)


# ---------------------------------------------------------------------------
# The composed engine
# ---------------------------------------------------------------------------

class BatchedChannelEngine:
    """Coverage + (optional) synthesis + sequencing, all batched.

    The array-native counterpart of ``SequencingSimulator`` /
    ``TwoStageSequencer`` (which are now thin façades over this class):
    one :meth:`sequence` call takes the designed strands and returns a
    :class:`ReadBatch` with every noisy read of every cluster, having
    touched the RNG a constant number of times regardless of strand count
    or coverage.

    Args:
        sequencing_model: per-read IDS rates — an :class:`ErrorModel` or a
            positional :class:`ErrorRateMap` for skew scenarios.
        coverage_model: reads per cluster (Fixed/Gamma).
        synthesis_model: when given, each strand is mutated *once* before
            sequencing and every read inherits the mutation (the paper's
            Section 8 two-stage channel; use the enzymatic profile for the
            indel-heavy regime).
        n_alphabet: alphabet size (4 for DNA, 2 for binary analyses).
    """

    def __init__(
        self,
        sequencing_model: RateSpec,
        coverage_model: CoverageModel = FixedCoverage(10),
        synthesis_model: Optional[RateSpec] = None,
        n_alphabet: int = 4,
    ) -> None:
        self.sequencing_model = sequencing_model
        self.coverage_model = coverage_model
        self.synthesis_model = synthesis_model
        self.n_alphabet = n_alphabet

    def sequence(
        self,
        strands: Union[Sequence[str], Sequence[np.ndarray], np.ndarray],
        rng: RngLike = None,
    ) -> ReadBatch:
        """Sample coverage, then emit every read in one batched pass."""
        generator = ensure_rng(rng)
        buffer, offsets, lengths = as_template_set(strands)
        counts = self.coverage_model.sample(lengths.size, generator)
        return self._sequence_templates(
            buffer, offsets, lengths, counts, generator
        )

    def sequence_counts(
        self,
        strands: Union[Sequence[str], Sequence[np.ndarray], np.ndarray],
        counts: np.ndarray,
        rng: RngLike = None,
    ) -> ReadBatch:
        """Emit exactly ``counts[i]`` reads of strand ``i`` (no coverage
        sampling) — what read pools and fixed-coverage sweeps use."""
        generator = ensure_rng(rng)
        buffer, offsets, lengths = as_template_set(strands)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (lengths.size,):
            raise ValueError("counts must have one entry per strand")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        return self._sequence_templates(
            buffer, offsets, lengths, counts, generator
        )

    def sample_pool(
        self,
        strands: Union[Sequence[str], Sequence[np.ndarray], np.ndarray],
        depth: int,
        rng: RngLike = None,
    ) -> ReadBatch:
        """``depth`` reads for every strand — a full coverage-sweep pool."""
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        generator = ensure_rng(rng)
        buffer, offsets, lengths = as_template_set(strands)
        counts = np.full(lengths.size, depth, dtype=np.int64)
        return self._sequence_templates(
            buffer, offsets, lengths, counts, generator
        )

    def _sequence_templates(
        self,
        buffer: np.ndarray,
        offsets: np.ndarray,
        lengths: np.ndarray,
        counts: np.ndarray,
        generator: np.random.Generator,
    ) -> ReadBatch:
        n_strands = lengths.size
        tracer = get_tracer()
        with tracer.span("channel.sequence", n_strands=n_strands) as span:
            # Rate maps must cover the designed strands; beyond-design
            # positions (molecules lengthened by synthesis insertions)
            # clamp to the map's last entry inside ErrorRateMap.per_base.
            longest = int(lengths.max()) if n_strands else 0
            for model in (self.sequencing_model, self.synthesis_model):
                if isinstance(model, ErrorRateMap) and model.length < longest:
                    raise ValueError(
                        f"rate map covers {model.length} positions but a "
                        f"designed strand has {longest}"
                    )
            if self.synthesis_model is not None:
                # One synthesis "read" per strand: the physical molecule.
                # Its errors are shared by every sequencing read of the
                # cluster.
                buffer, lengths = batched_ids_pass(
                    buffer, offsets, lengths,
                    np.arange(n_strands, dtype=np.int64),
                    self.synthesis_model, generator, self.n_alphabet,
                )
                offsets = np.cumsum(lengths) - lengths
            template_of_read = np.repeat(
                np.arange(n_strands, dtype=np.int64), counts
            )
            out, out_lengths = batched_ids_pass(
                buffer, offsets, lengths, template_of_read,
                self.sequencing_model, generator, self.n_alphabet,
            )
            span.set(n_reads=template_of_read.size)
            if tracer.is_recording:
                metrics = tracer.metrics
                metrics.counter("channel.strands_in").add(int(n_strands))
                metrics.counter("channel.reads_out").add(
                    int(template_of_read.size)
                )
                metrics.counter("channel.bases_out").add(
                    int(out_lengths.sum())
                )
        return ReadBatch(
            out,
            np.cumsum(out_lengths) - out_lengths,
            out_lengths,
            cluster_ids=template_of_read,
            n_clusters=n_strands,
        )
