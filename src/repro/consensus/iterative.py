"""Iterative realign-and-vote reconstruction, batched across clusters.

A stronger consensus algorithm standing in for the iterative reconstructor
of Sabary et al. that the paper uses for its Figure 5 ("Reconstruction
Algorithms for DNA Storage Systems"): starting from the two-way estimate,
repeatedly

1. globally align every read against the current estimate (unit-cost
   Needleman-Wunsch, i.e. edit-distance alignment), and
2. re-vote every position of the estimate from the aligned read characters,

until a fixed point or an iteration cap. Unlike the one-way scan, votes at
position i come from characters aligned to i from *both* directions, so the
algorithm is considerably more accurate — yet, as the paper's Figure 5
demonstrates (and the Fig-5 benchmark here reproduces), the positional
reliability skew persists: alignment ambiguity still concentrates in the
middle of the strand whenever indels are present.

Like the pointer scans in :mod:`repro.consensus.bma`, the refinement here
advances *every read of every cluster* simultaneously: the unit-cost edit
DP runs as one vectorized row-sweep over the whole padded read stack (one
``(n_reads, max_len + 1)`` row per DP step instead of a Python-level
matrix per read), tracebacks walk all alignments in lockstep, and both the
per-position voting and the closing positional-majority/edit-distance
arbitration are segmented reductions keyed by cluster id. Clusters that
reach their alignment fixed point drop out of the active set between
iterations. The frozen per-cluster original lives in
``tests/oracles/consensus.py`` and is pinned byte-identical by
``tests/consensus/test_vectorized_vs_reference.py``.

The output length is held at L throughout, matching the constrained-median
formulation (the paper notes the original Sabary et al. code does not
always return the desired length; ours does by construction).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.channel.readbatch import ReadBatch
from repro.cluster.distance import banded_edit_distances_stack
from repro.consensus.base import Reconstructor
from repro.consensus.two_way import TwoWayReconstructor
from repro.observability.trace import get_tracer


class IterativeReconstructor(Reconstructor):
    """Realign-and-vote refinement around an initial two-way estimate.

    Args:
        max_iterations: refinement cap (fixed points usually occur in 2-3).
        n_alphabet: alphabet size.
    """

    #: Ceiling on the bytes of edit-DP state materialized at once. The
    #: traceback needs the full ``(reads, L + 1, max_len + 1)`` matrix
    #: stack, so read stacks that would exceed this are swept in chunks
    #: (votes are additive, so chunking cannot change the result).
    dp_budget_bytes = 96 * 2 ** 20

    def __init__(self, max_iterations: int = 4, n_alphabet: int = 4) -> None:
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        self.max_iterations = max_iterations
        self.n_alphabet = n_alphabet
        self._seed = TwoWayReconstructor(n_alphabet=n_alphabet)

    def reconstruct_batch(self, batch: ReadBatch, length: int) -> np.ndarray:
        """The two-way seeds come from one batched scan, and the
        realign-and-vote refinement sweeps all clusters' reads as one
        padded stack (see :meth:`_refine_batched`), both straight off the
        batch's flat buffer."""
        if batch.n_clusters == 0:
            return np.zeros((0, length), dtype=np.int64)
        seeds = np.asarray(self._seed.reconstruct_batch(batch, length),
                           dtype=np.int64)
        if batch.n_reads == 0 or length == 0:
            return seeds
        padded, lengths = batch.padded_matrix()
        return self._refine_batched(padded, lengths, batch.cluster_ids, seeds)

    # -- the batched refinement engine ----------------------------------------

    def _refine_batched(
        self,
        padded: np.ndarray,
        lengths: np.ndarray,
        cluster_of: np.ndarray,
        estimates: np.ndarray,
    ) -> np.ndarray:
        """Refine every cluster's estimate against its reads, batched.

        ``padded`` is the ``(n_reads, width)`` sentinel read stack (``-1``
        past each read's end), rows tagged by the non-decreasing
        ``cluster_of``; ``estimates`` is the ``(n_clusters, length)`` seed
        matrix. Returns a new ``(n_clusters, length)`` matrix; clusters
        without (non-empty) reads keep their seed untouched, matching the
        reference's early return.
        """
        n_clusters, length = estimates.shape
        estimates = estimates.copy()
        keep = lengths > 0
        if not keep.all():
            padded = padded[keep]
            lengths = lengths[keep]
            cluster_of = cluster_of[keep]
        if length == 0 or lengths.size == 0:
            return estimates
        width = int(lengths.max())
        padded = np.ascontiguousarray(padded[:, :width])

        live = np.unique(cluster_of)
        active = live
        # Iteration counters accumulate locally (one add per sweep, never
        # per cluster) and emit once after the loop.
        iterations = 0
        active_cluster_sweeps = 0
        for _ in range(self.max_iterations):
            iterations += 1
            active_cluster_sweeps += int(active.size)
            if active.size < live.size:
                sub = np.isin(cluster_of, active)
                reads_a, lengths_a = padded[sub], lengths[sub]
                clusters_a = cluster_of[sub]
            else:
                reads_a, lengths_a, clusters_a = padded, lengths, cluster_of
            local = np.searchsorted(active, clusters_a)
            current = estimates[active]
            votes = self._alignment_votes(reads_a, lengths_a, local, current)
            voted = votes.sum(axis=2) > 0
            refined = np.where(voted, votes.argmax(axis=2), current)
            changed = (refined != current).any(axis=1)
            estimates[active] = refined
            active = active[changed]
            if active.size == 0:
                break
        tracer = get_tracer()
        if tracer.is_recording:
            metrics = tracer.metrics
            metrics.counter("consensus.refined_clusters").add(int(live.size))
            metrics.counter("consensus.iterations").add(iterations)
            metrics.counter("consensus.active_cluster_sweeps").add(
                active_cluster_sweeps
            )

        # The pointer-scan seed can suffer rare desynchronization cascades
        # that positional re-voting cannot undo (it refines symbols, not
        # coordinates). A plain per-position majority is immune to those
        # cascades whenever indels are absent or rare, so evaluate both
        # candidates under the true objective — the sum of edit distances —
        # and return the better one, per cluster.
        local_live = np.searchsorted(live, cluster_of)
        majority = self._positional_majority_batched(
            padded, lengths, local_live, live.size, length
        )
        # One stack of (read, candidate) pairs for both candidates; a band
        # as wide as the longer string makes every distance exact.
        distance_estimate, distance_majority = banded_edit_distances_stack(
            np.concatenate([padded, padded]),
            np.concatenate([lengths, lengths]),
            np.concatenate([estimates[cluster_of], majority[local_live]]),
            np.full(2 * lengths.size, length),
            max(width, length),
        ).reshape(2, -1)
        total_estimate = np.bincount(
            local_live, weights=distance_estimate, minlength=live.size
        )
        total_majority = np.bincount(
            local_live, weights=distance_majority, minlength=live.size
        )
        better = total_majority < total_estimate
        if tracer.is_recording:
            tracer.metrics.counter("consensus.majority_arbitrations").add(
                int(better.sum())
            )
        estimates[live[better]] = majority[better]
        return estimates

    def _alignment_votes(
        self,
        reads: np.ndarray,
        lengths: np.ndarray,
        local_cluster: np.ndarray,
        estimates: np.ndarray,
    ) -> np.ndarray:
        """Aligned per-position ballots: ``votes[c, i, s]`` counts reads of
        (local) cluster ``c`` whose alignment put symbol ``s`` at position
        ``i``. DP and traceback run over the whole stack; the read axis is
        chunked to honor :attr:`dp_budget_bytes`."""
        n_clusters, length = estimates.shape
        n_reads, width = reads.shape
        alphabet = self.n_alphabet
        est_rows = estimates[local_cluster]
        votes_flat = np.zeros(n_clusters * length * alphabet, dtype=np.int64)
        chunk = max(1, self.dp_budget_bytes // (4 * (length + 1) * (width + 1)))
        for start in range(0, n_reads, chunk):
            stop = min(start + chunk, n_reads)
            matrices = self._edit_matrix_stack(
                est_rows[start:stop], reads[start:stop]
            )
            keys = self._traceback_vote_keys(
                matrices, est_rows[start:stop], reads[start:stop],
                lengths[start:stop], local_cluster[start:stop],
                length, alphabet,
            )
            if keys.size:
                votes_flat += np.bincount(keys, minlength=votes_flat.size)
        return votes_flat.reshape(n_clusters, length, alphabet)

    @staticmethod
    def _edit_matrix_stack(
        estimates: np.ndarray, reads: np.ndarray
    ) -> np.ndarray:
        """Full unit-cost DP matrices for every (estimate, read) pair.

        With unit gap costs a DP row is ``row[j] = min_k<=j (tmp[k] +
        (j - k))``, where ``tmp`` holds the vertical/diagonal candidates:
        one min-accumulate per row. The sweep runs over the whole
        ``(n_reads, width)`` stack at once, each DP step updating one
        ``(n_reads, width + 1)`` row. Columns past a read's end hold
        sentinel ``-1`` (which matches nothing), so those entries are
        garbage-but-harmless: every entry at column
        ``j <= len(read)`` depends only on real read characters and equals
        the reference's per-read matrix.
        """
        n_reads, width = reads.shape
        length = estimates.shape[1]
        offsets = np.arange(width + 1, dtype=np.int32)
        matrices = np.empty((n_reads, length + 1, width + 1), dtype=np.int32)
        matrices[:, 0, :] = offsets
        matrices[:, :, 0] = np.arange(length + 1, dtype=np.int32)
        candidates = np.empty((n_reads, width + 1), dtype=np.int32)
        for i in range(1, length + 1):
            previous = matrices[:, i - 1, :]
            substitution = (reads != estimates[:, i - 1, None]).astype(np.int32)
            candidates[:, 0] = previous[:, 0] + 1
            np.minimum(
                previous[:, :-1] + substitution, previous[:, 1:] + 1,
                out=candidates[:, 1:],
            )
            matrices[:, i, :] = (
                np.minimum.accumulate(candidates - offsets, axis=1) + offsets
            )
        return matrices

    @staticmethod
    def _traceback_vote_keys(
        matrices: np.ndarray,
        estimates: np.ndarray,
        reads: np.ndarray,
        lengths: np.ndarray,
        local_cluster: np.ndarray,
        length: int,
        alphabet: int,
    ) -> np.ndarray:
        """Walk every alignment back in lockstep, emitting vote keys.

        Each surviving read holds a DP cursor ``(i, j)``; one step settles
        the move for all of them (diagonal = vote, up = deletion, left =
        insertion — the same tie order as the reference's ``if/elif``).
        Votes are flat ``(cluster, position, symbol)`` keys, counted by one
        ``bincount`` in the caller; counts are order-free, so the lockstep
        walk is exactly the reference's sequential walk.
        """
        rows = np.arange(matrices.shape[0])
        i = np.full(rows.size, length, dtype=np.int64)
        j = lengths.astype(np.int64).copy()
        alive = (i > 0) & (j > 0)
        rows, i, j = rows[alive], i[alive], j[alive]
        parts: List[np.ndarray] = []
        while rows.size:
            estimate_char = estimates[rows, i - 1]
            read_char = reads[rows, j - 1]
            substitution = (estimate_char != read_char).astype(np.int32)
            current = matrices[rows, i, j]
            diagonal = current == matrices[rows, i - 1, j - 1] + substitution
            up = ~diagonal & (current == matrices[rows, i - 1, j] + 1)
            if diagonal.any():
                parts.append(
                    (local_cluster[rows[diagonal]] * length
                     + (i[diagonal] - 1)) * alphabet + read_char[diagonal]
                )
            i -= diagonal | up
            j -= diagonal | ~(diagonal | up)
            alive = (i > 0) & (j > 0)
            rows, i, j = rows[alive], i[alive], j[alive]
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(parts)

    def _positional_majority_batched(
        self,
        reads: np.ndarray,
        lengths: np.ndarray,
        local_cluster: np.ndarray,
        n_clusters: int,
        length: int,
    ) -> np.ndarray:
        """Column-wise plurality per cluster, ignoring alignment entirely."""
        effective = min(reads.shape[1], length)
        columns = np.arange(effective, dtype=np.int64)
        mask = columns[None, :] < np.minimum(lengths, length)[:, None]
        rows, positions = np.nonzero(mask)
        symbols = reads[rows, positions]
        keys = (local_cluster[rows] * length + positions) * self.n_alphabet \
            + symbols
        counts = np.bincount(
            keys, minlength=n_clusters * length * self.n_alphabet
        ).reshape(n_clusters, length, self.n_alphabet)
        voted = counts.sum(axis=2) > 0
        return np.where(voted, counts.argmax(axis=2), 0).astype(np.int64)
