"""Symbolwise posterior reconstruction over the IDS edit lattice, batched.

A probabilistic counterpart of the heuristic scans: each read is aligned
against the current estimate by a forward-backward pass over the
insertion/deletion/substitution lattice, producing for every original
position a *posterior-weighted* vote distribution rather than a hard
aligned character. Votes are accumulated across reads and the estimate is
re-voted; the procedure repeats to a fixed point (soft-EM flavour of
:class:`repro.consensus.iterative.IterativeReconstructor`).

Besides reconstruction, the lattice exposes the paper's skew from a new
angle: :meth:`PosteriorReconstructor.reconstruct_batch_with_confidence`
returns each position's winning posterior mass alongside the estimate,
which dips exactly where the paper's error curves peak — alignment
ambiguity *is* the reliability skew.

Model: a read is generated from the estimate left to right; at estimate
position ``i`` the channel deletes (``p_del``), inserts a uniform base
(``p_ins``), substitutes (``p_sub``, uniform over the other three), or
copies. The forward/backward recursions run in the probability domain
with per-row renormalization (the within-row insertion chain is a linear
recurrence solved by ``scipy.signal.lfilter``), so strands of hundreds of
bases are handled without underflow.

The lattice is *batched*: the recursions run over a ``(reads,
positions)`` stack — every read of every cluster advances one lattice row
per step, the insertion-chain ``lfilter`` vectorizing over the leading
read axis — and posterior votes are accumulated per cluster with
segmented reductions, clusters dropping out of the active set at their
fixed point. Reads of different lengths share the stack via sentinel
padding; padded columns are masked to exact zeros after every row, so
they never leak probability mass into real columns. The frozen per-read
original lives in ``tests/oracles/consensus.py``
(``ReferencePosteriorReconstructor``); the differential suite pins the
batched estimates byte-identical to it (confidences agree to float
round-off — the batched reductions sum the same terms in a different
association order). One deliberate exception: when a read is *impossible*
under the channel model (e.g. longer than the estimate with
``p_insertion=0``), the reference's log-space rescaling turns the
all-zero lattice into NaN votes; the batched probability-domain path
keeps such a read's votes at exact zero and stays finite, which the
suite pins as the defined behavior.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy.signal import lfilter

from repro.channel.errors import ErrorModel
from repro.channel.readbatch import ReadBatch
from repro.consensus.base import Reconstructor
from repro.consensus.two_way import TwoWayReconstructor
from repro.observability.trace import get_tracer

_TINY = 1e-300


class PosteriorReconstructor(Reconstructor):
    """Posterior-vote reconstruction with an explicit channel model.

    Args:
        channel: assumed IDS rates (defaults to 5% split uniformly; the
            estimator in :mod:`repro.analysis.channel_estimation` can
            supply measured rates).
        max_iterations: re-voting rounds.
        n_alphabet: alphabet size.
    """

    #: Ceiling on the bytes of lattice state (forward/backward stacks,
    #: emission and edge matrices) materialized at once; larger read
    #: stacks are processed in chunks. Chunking preserves the per-cluster
    #: read accumulation order, so results do not depend on it.
    lattice_budget_bytes = 256 * 2 ** 20

    def __init__(
        self,
        channel: Optional[ErrorModel] = None,
        max_iterations: int = 3,
        n_alphabet: int = 4,
    ) -> None:
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        self.channel = channel or ErrorModel.uniform(0.05)
        if self.channel.total_rate >= 1.0:
            raise ValueError("channel error rate must be below 1")
        self.max_iterations = max_iterations
        self.n_alphabet = n_alphabet
        self._seed = TwoWayReconstructor(n_alphabet=n_alphabet)

    def reconstruct_batch(self, batch: ReadBatch, length: int) -> np.ndarray:
        """The estimates of :meth:`reconstruct_batch_with_confidence`."""
        if batch.n_clusters == 0:
            return np.zeros((0, length), dtype=np.int64)
        results = self.reconstruct_batch_with_confidence(batch, length)
        return np.stack([estimate for estimate, _ in results])

    def reconstruct_batch_with_confidence(
        self, batch: ReadBatch, length: int
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """``(estimate, confidence)`` per cluster of ``batch``.

        The confidence is each position's winning posterior mass (1.0 =
        certain); it dips where alignment ambiguity leaves the vote
        split, the positional signature of the reliability skew, and it
        is what confidence-assisted decoding consumes. The two-way seeds
        come from one scan over the batch's flat buffer and the lattice
        refinement advances all clusters' reads together (see
        :meth:`_run_batched`), end to end without per-read Python
        objects."""
        if batch.n_clusters == 0:
            return []
        seeds = np.asarray(self._seed.reconstruct_batch(batch, length),
                           dtype=np.int64)
        if batch.n_reads == 0 or length == 0:
            return [(seed, np.ones(length, dtype=np.float64))
                    for seed in seeds]
        padded, lengths = batch.padded_matrix()
        estimates, confidences = self._run_batched(
            padded, lengths, batch.cluster_ids, seeds
        )
        return list(zip(estimates, confidences))

    # -- the batched lattice engine -------------------------------------------

    def _run_batched(
        self,
        padded: np.ndarray,
        lengths: np.ndarray,
        cluster_of: np.ndarray,
        seeds: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Refine every cluster's seed by batched posterior re-voting.

        ``padded`` is the ``(n_reads, width)`` sentinel read stack (``-1``
        past each read's end), rows tagged by the non-decreasing
        ``cluster_of``; ``seeds`` is ``(n_clusters, length)``. Returns the
        ``(n_clusters, length)`` estimates and confidences; clusters
        without (non-empty) reads keep their seed with confidence 1.0,
        matching the reference's early return.
        """
        n_clusters, length = seeds.shape
        estimates = seeds.copy()
        confidence = np.ones((n_clusters, length), dtype=np.float64)
        keep = lengths > 0
        if not keep.all():
            padded = padded[keep]
            lengths = lengths[keep]
            cluster_of = cluster_of[keep]
        if length == 0 or lengths.size == 0:
            return estimates, confidence
        width = int(lengths.max())
        padded = np.ascontiguousarray(padded[:, :width])

        active = np.unique(cluster_of)
        n_live = int(active.size)
        # Iteration counters accumulate locally (one add per lattice
        # sweep, never per cluster) and emit once after the loop.
        iterations = 0
        active_cluster_sweeps = 0
        for _ in range(self.max_iterations):
            iterations += 1
            active_cluster_sweeps += int(active.size)
            sub = np.isin(cluster_of, active)
            if sub.all():
                reads_a, lengths_a, clusters_a = padded, lengths, cluster_of
            else:
                reads_a, lengths_a = padded[sub], lengths[sub]
                clusters_a = cluster_of[sub]
            local = np.searchsorted(active, clusters_a)
            current = estimates[active]
            votes = self._posterior_vote_ballots(
                reads_a, lengths_a, local, current
            )
            refined = votes.argmax(axis=2).astype(np.int64)
            cluster_confidence = votes.max(axis=2) / votes.sum(axis=2)
            changed = (refined != current).any(axis=1)
            estimates[active] = refined
            confidence[active] = cluster_confidence
            active = active[changed]
            if active.size == 0:
                break
        tracer = get_tracer()
        if tracer.is_recording:
            metrics = tracer.metrics
            metrics.counter("consensus.refined_clusters").add(n_live)
            metrics.counter("consensus.iterations").add(iterations)
            metrics.counter("consensus.active_cluster_sweeps").add(
                active_cluster_sweeps
            )
        return estimates, confidence

    def _posterior_vote_ballots(
        self,
        reads: np.ndarray,
        lengths: np.ndarray,
        local_cluster: np.ndarray,
        estimates: np.ndarray,
    ) -> np.ndarray:
        """Per-cluster soft ballots ``(n_clusters, length, alphabet)``.

        One chunked sweep over the read stack; each chunk's per-read vote
        matrices are summed into their clusters with a segmented
        ``reduceat`` (reads are grouped by cluster, so segments are
        contiguous and accumulate in read order).
        """
        n_clusters, length = estimates.shape
        n_reads, width = reads.shape
        votes = np.full((n_clusters, length, self.n_alphabet), _TINY,
                        dtype=np.float64)
        est_rows = estimates[local_cluster]
        per_read = 8 * 6 * (length + 2) * (width + 2)
        chunk = max(1, self.lattice_budget_bytes // per_read)
        for start in range(0, n_reads, chunk):
            stop = min(start + chunk, n_reads)
            read_votes = self._read_vote_matrices(
                est_rows[start:stop], reads[start:stop], lengths[start:stop]
            )
            segment_ids, firsts = np.unique(
                local_cluster[start:stop], return_index=True
            )
            votes[segment_ids] += np.add.reduceat(read_votes, firsts, axis=0)
        return votes

    def _read_vote_matrices(
        self, estimates: np.ndarray, reads: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """P(read char j emitted at position i) * [char == s], per read.

        The batched form of the reference's ``_posterior_votes``: one
        ``(n_reads, length, width)`` lattice per quantity, padded columns
        (``j >= len(read)``) forced to exact zero mass.
        """
        n_reads, width = reads.shape
        length = estimates.shape[1]
        alphabet = self.n_alphabet
        p_ins = self.channel.p_insertion
        p_del = self.channel.p_deletion
        p_sub = self.channel.p_substitution
        p_copy = 1.0 - p_ins - p_del - p_sub
        insertion_step = p_ins / alphabet

        # Emission probability of read char j from estimate position i;
        # sentinel columns take the mismatch branch but never reach the
        # votes (the backward lattice is exactly zero there).
        match = reads[:, None, :] == estimates[:, :, None]  # (R, L, m)
        emit = np.where(
            match, p_copy + _TINY, p_sub / max(alphabet - 1, 1) + _TINY
        )

        forward = self._forward_batched(emit, insertion_step, p_del, lengths)
        backward = self._backward_batched(emit, insertion_step, p_del, lengths)

        # Posterior of the emission edge (i, j) -> (i+1, j+1):
        # F[i, j] * emit[i, j] * B[i+1, j+1]. The reference carries per-row
        # log scales and a global peak shift through this product, but all
        # of those are constant over j within a row — and the votes below
        # are normalized per (read, row) — so they cancel and the batched
        # lattice can stay in the probability domain with no 3-D log/exp
        # passes at all. (Rows whose entire relative mass sits below the
        # float underflow floor lose it; the reference's exp underflows in
        # the same regime, a few hundred nats further out.) Padded columns
        # (j >= len(read)) carry an exact zero in the backward slice, so
        # they vanish from the votes.
        edge = forward[:, :-1, :-1] * emit
        edge *= backward[:, 1:, 1:]

        # votes[r, i, s] = sum_j edge[r, i, j] * [read[r, j] == s]: one
        # batched matmul against the reads' one-hot expansion (sentinel
        # columns are all-zero rows there).
        one_hot = (
            reads[:, :, None] == np.arange(alphabet)[None, None, :]
        ).astype(np.float64)
        votes = edge @ one_hot
        # Normalize per position so each read contributes one soft vote.
        totals = votes.sum(axis=2, keepdims=True)
        np.divide(votes, np.maximum(totals, _TINY), out=votes)
        return votes

    #: Rows between renormalizations of the batched lattices. The scales
    #: cancel in the vote normalization, so normalizing is purely an
    #: underflow guard; row mass shrinks by at most ~p_del per row, so a
    #: handful of rows cannot come near the float64 floor.
    _NORMALIZE_EVERY = 8

    def _forward_batched(self, emit, insertion_step, p_del, lengths):
        """Forward lattices, one per read, row-normalized periodically.

        Column ``j`` of read ``r`` is real only for ``j <= len(read)``.
        The within-row ``lfilter`` chain runs left to right, so padded-
        column garbage never flows *into* real columns; it is masked out
        only on normalization rows (where it would pollute the row sum).
        Garbage in the stored lattice is harmless downstream: the edge
        product multiplies it by the backward lattice's exact zeros.
        """
        n_reads, length, width = emit.shape
        columns = np.arange(width + 1)
        valid = columns[None, :] <= lengths[:, None]  # (R, m + 1)
        forward = np.zeros((n_reads, length + 1, width + 1), dtype=np.float64)
        # Row 0: only insertions from (0, 0).
        row = np.where(
            valid, np.power(insertion_step, columns, dtype=np.float64), 0.0
        )
        forward[:, 0, :] = row / row.sum(axis=1)[:, None]
        base = np.empty((n_reads, width + 1), dtype=np.float64)
        scratch = np.empty((n_reads, width), dtype=np.float64)
        for i in range(1, length + 1):
            previous = forward[:, i - 1, :]
            base[:, 0] = previous[:, 0] * p_del
            np.multiply(previous[:, :-1], emit[:, i - 1, :], out=base[:, 1:])
            np.multiply(previous[:, 1:], p_del, out=scratch)
            base[:, 1:] += scratch
            # Within-row insertion chain: row[j] = base[j] + a * row[j-1].
            row = lfilter([1.0], [1.0, -insertion_step], base, axis=1)
            if i % self._NORMALIZE_EVERY == 0:
                np.multiply(row, valid, out=row)
                scale = row.sum(axis=1)
                scale = np.where(scale > 0, scale, _TINY)
                np.divide(row, scale[:, None], out=forward[:, i, :])
            else:
                forward[:, i, :] = row
        return forward

    def _backward_batched(self, emit, insertion_step, p_del, lengths):
        """Backward lattices, one per read, row-normalized periodically.

        The backward chain runs right to left, so here the padded columns
        sit *upstream* of the real ones: ``base`` is masked to zero before
        the reversed ``lfilter`` so no phantom mass flows into column
        ``len(read)``, which is exactly the reference's boundary cell.
        (With the base masked, the chain output is already exactly zero in
        every padded column — the edge product relies on that.)
        """
        n_reads, length, width = emit.shape
        columns = np.arange(width + 1)
        exponents = lengths[:, None] - columns[None, :]
        valid = exponents >= 0  # (R, m + 1)
        backward = np.zeros((n_reads, length + 1, width + 1), dtype=np.float64)
        row = np.where(
            valid,
            np.power(insertion_step, np.maximum(exponents, 0),
                     dtype=np.float64),
            0.0,
        )
        backward[:, length, :] = row / row.sum(axis=1)[:, None]
        base = np.empty((n_reads, width + 1), dtype=np.float64)
        scratch = np.empty((n_reads, width), dtype=np.float64)
        for i in range(length - 1, -1, -1):
            nxt = backward[:, i + 1, :]
            base[:, width] = nxt[:, width] * p_del
            np.multiply(nxt[:, 1:], emit[:, i, :], out=base[:, :-1])
            np.multiply(nxt[:, :-1], p_del, out=scratch)
            base[:, :-1] += scratch
            np.multiply(base, valid, out=base)
            # Backward insertion chain: row[j] = base[j] + a * row[j+1].
            row = lfilter(
                [1.0], [1.0, -insertion_step], base[:, ::-1], axis=1
            )[:, ::-1]
            if i % self._NORMALIZE_EVERY == 0:
                scale = row.sum(axis=1)
                scale = np.where(scale > 0, scale, _TINY)
                np.divide(row, scale[:, None], out=backward[:, i, :])
            else:
                backward[:, i, :] = row
        return backward
