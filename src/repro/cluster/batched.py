"""Greedy clustering on the columnar read plane, batched per cluster.

The sequential greedy scan compares every read against the
representatives one Python iteration at a time. The clusterer here
produces the *exact same assignments* straight off a
:class:`~repro.channel.readbatch.ReadBatch` buffer, restructured around
one round per **cluster** instead of one step per read:

1. the lowest-indexed unassigned read founds the next cluster (it is, by
   induction, exactly the read that would found it in the sequential
   scan: every read before it has already been assigned or has founded
   an earlier cluster);
2. every remaining unassigned read is screened against that one new
   representative — the length-gap and q-gram L1 prefilters as whole-pool
   array ops over signatures precomputed in a single pass
   (:func:`~repro.cluster.signatures.batch_signatures`), then one
   stacked banded edit-distance sweep
   (:func:`~repro.cluster.distance.banded_edit_distances_stack`): the
   bit-parallel kernel packs every surviving candidate's band into one
   lane of a Python integer and advances them all by one founder base
   per step;
3. matching reads join the new cluster and drop out of the active set.

A read assigned in round ``r`` matched representative ``r`` and, having
survived rounds ``0..r-1``, matched none before it — the sequential
first-match rule. Founders strictly increase in read order, so every
comparison a round makes is one the sequential scan would also have made.
The equivalence is pinned by the differential suite
(``tests/cluster/test_batched.py``) against the frozen string-plane
scan in ``tests/oracles/cluster.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.channel.readbatch import ReadBatch
from repro.cluster.distance import banded_edit_distances_stack
from repro.cluster.signatures import batch_signatures, l1_distances
from repro.observability.trace import get_tracer


def padded_int16_matrix(batch: ReadBatch) -> Tuple[np.ndarray, np.ndarray]:
    """The batch's padded read matrix, narrowed for the DP sweeps.

    Base indices and the -1 sentinel fit comfortably in int16, which
    halves the bytes the stacked kernel's match masks compare. Shared by
    every columnar clusterer (batched greedy and LSH).
    """
    matrix, lengths = batch.padded_matrix()
    return matrix.astype(np.int16), lengths


def relabel_batch(
    batch: ReadBatch,
    assignment: np.ndarray,
    n_clusters: int,
    source_indices: Optional[np.ndarray] = None,
) -> ReadBatch:
    """Regroup the batch's read rows by assigned cluster (zero-copy).

    Cluster ``c`` holds the reads ``assignment`` put there, reads keeping
    their input order within each cluster (stable sort)."""
    order = np.argsort(assignment, kind="stable")
    return ReadBatch(
        batch.buffer,
        batch.offsets[order],
        batch.lengths[order],
        assignment[order],
        n_clusters=n_clusters,
        source_indices=source_indices,
    )


class ColumnarClusterer:
    """The batch surface shared by every columnar clusterer.

    ``assign``/``cluster_batch``/``cluster_pools`` over a
    :class:`ReadBatch`. A subclass provides ``_prepare(batch)`` — state
    derived once per batch from read content — and ``_assign_rows(start,
    stop, *prepared)``, which clusters the read rows ``[start, stop)`` as
    one pool and returns ``(assignment, n_clusters)``.
    """

    def assign(self, batch: ReadBatch) -> Tuple[np.ndarray, int]:
        """Cluster id of every read of ``batch``, treated as one pool.

        The batch's own cluster structure is ignored. Returns
        ``(assignment, n_clusters)``; ``assignment[i]`` is the cluster
        of read ``i``, numbered as the subclass documents.
        """
        return self._assign_rows(0, batch.n_reads, *self._prepare(batch))

    def cluster_batch(self, batch: ReadBatch) -> ReadBatch:
        """Cluster every read of ``batch`` as one unlabeled pool.

        Returns a re-labeled batch sharing the input buffer zero-copy:
        cluster ``c`` holds the reads :meth:`assign` put there (reads
        keep their pool order within each cluster), and
        ``source_indices`` is the cluster numbering — there is no ground
        truth. The result is a spanning batch any consumer of labeled
        reads (``pipeline.receive``, ``pipeline.decode``) takes
        unchanged.
        """
        with get_tracer().span(
            "cluster.batch", n_reads=batch.n_reads
        ) as span:
            assignment, n_clusters = self.assign(batch)
            span.set(n_clusters=n_clusters)
            return relabel_batch(batch, assignment, n_clusters)

    def cluster_pools(
        self,
        batch: ReadBatch,
        pool_boundaries: Optional[np.ndarray] = None,
    ) -> Tuple[ReadBatch, np.ndarray]:
        """Cluster each pool of ``batch`` independently.

        Pools are the batch's clusters (what ``SequencingSimulator.
        sequence_store(..., labeled=False)`` emits: one shuffled
        amplification pool per encoding unit); ``pool_boundaries`` — a
        cluster-granular table like ``receive_many``'s unit boundaries —
        groups several input clusters into one pool instead. Reads never
        cluster across pool borders (units are separately amplifiable,
        so pool membership is physical). The per-batch state
        (``_prepare``) is built once for the whole batch; each pool then
        clusters only its own rows.

        Returns ``(labeled, boundaries)``: one spanning re-labeled batch
        with every pool's recovered clusters back to back, and the
        recovered-cluster boundary table (pool ``p`` owns cluster slots
        ``boundaries[p] .. boundaries[p + 1]``) — exactly the pair
        :meth:`~repro.core.pipeline.DnaStoragePipeline.receive_many`
        consumes.
        """
        if pool_boundaries is None:
            pool_boundaries = np.arange(batch.n_clusters + 1, dtype=np.int64)
        tracer = get_tracer()
        with tracer.span(
            "cluster.pools", n_reads=batch.n_reads,
            n_pools=pool_boundaries.size - 1,
        ) as span:
            row_bounds = batch.group_rows(pool_boundaries)
            prepared = self._prepare(batch)
            n_pools = row_bounds.size - 1
            assignment = np.full(batch.n_reads, -1, dtype=np.int64)
            source_parts = []
            counts = np.zeros(n_pools, dtype=np.int64)
            offset = 0
            for p in range(n_pools):
                start, stop = int(row_bounds[p]), int(row_bounds[p + 1])
                local, k = self._assign_rows(start, stop, *prepared)
                assignment[start:stop] = local + offset
                source_parts.append(np.arange(k, dtype=np.int64))
                counts[p] = k
                offset += k
            boundaries = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
            )
            source_indices = (np.concatenate(source_parts) if source_parts
                              else np.zeros(0, dtype=np.int64))
            span.set(n_clusters=int(offset))
            if tracer.is_recording:
                tracer.metrics.counter("cluster.recovered_clusters").add(
                    int(offset)
                )
            labeled = relabel_batch(batch, assignment, int(offset),
                                    source_indices=source_indices)
        return labeled, boundaries


class BatchedGreedyClusterer(ColumnarClusterer):
    """Greedy edit-distance clustering over a :class:`ReadBatch`.

    Assignment-identical to the sequential first-match greedy scan at
    any ``threshold``/``qgram_size``; the work is vectorized across the
    whole pool. Reads are processed in row order, and cluster ids are
    the creation order.

    Args:
        threshold: maximum edit distance to a cluster representative.
        qgram_size: q-gram length for the L1 prefilter (0 disables it).
    """

    def __init__(self, threshold: int, qgram_size: int = 3) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        if qgram_size < 0:
            raise ValueError(f"qgram_size must be non-negative, got {qgram_size}")
        self.threshold = threshold
        self.qgram_size = qgram_size

    @classmethod
    def for_strand_length(cls, length: int,
                          qgram_size: int = 3) -> "BatchedGreedyClusterer":
        """A clusterer with the default threshold for designed strands of
        ``length`` bases: a quarter of the strand — comfortably above the
        edit distance between noisy reads of one strand at the error
        rates this repository simulates, and far below the distance
        between reads of different (near-random) strands."""
        return cls(threshold=max(2, length // 4), qgram_size=qgram_size)

    # -- assignment ----------------------------------------------------------

    def _prepare(self, batch: ReadBatch) -> Tuple:
        """``(matrix, lengths, signatures)``: the padded read matrix and
        the q-gram signatures (None with the prefilter off)."""
        matrix, lengths = padded_int16_matrix(batch)
        signatures = (batch_signatures(batch, self.qgram_size)
                      if self.qgram_size else None)
        return matrix, lengths, signatures

    def _assign_rows(
        self,
        start: int,
        stop: int,
        matrix: np.ndarray,
        lengths: np.ndarray,
        signatures: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, int]:
        """One greedy pass over the read rows ``[start, stop)``, in order.

        Returns ``(assignment, n_clusters)`` with ``assignment[i]`` the
        cluster of row ``start + i``.
        """
        threshold = self.threshold
        assignment = np.full(stop - start, -1, dtype=np.int64)
        active = np.arange(start, stop, dtype=np.int64)
        n_clusters = 0
        # Round-loop counters accumulate in local ints (one add per
        # *founder round*, never per read) and emit once per call.
        screened = pruned = dp_rows = 0
        while active.size:
            founder = int(active[0])
            cluster_id = n_clusters
            n_clusters += 1
            assignment[founder - start] = cluster_id
            rest = active[1:]
            if rest.size == 0:
                break
            # Exact-safe prefilters, one array op each over the pool: the
            # length gap lower-bounds the distance, and so does L1/(2q)
            # over the precomputed signatures.
            candidate_mask = \
                np.abs(lengths[rest] - lengths[founder]) <= threshold
            if signatures is not None:
                l1 = l1_distances(signatures[rest], signatures[founder])
                candidate_mask &= l1 <= 2 * self.qgram_size * threshold
            candidates = rest[candidate_mask]
            screened += rest.size
            pruned += rest.size - candidates.size
            dp_rows += candidates.size
            matched = np.zeros(rest.size, dtype=bool)
            if candidates.size:
                distances = banded_edit_distances_stack(
                    matrix[candidates], lengths[candidates],
                    np.broadcast_to(matrix[founder],
                                    (candidates.size, matrix.shape[1])),
                    np.full(candidates.size, lengths[founder],
                            dtype=np.int64),
                    band=threshold,
                )
                within = distances <= threshold
                assignment[candidates[within] - start] = cluster_id
                matched[candidate_mask] = within
            active = rest[~matched]
        tracer = get_tracer()
        if tracer.is_recording:
            metrics = tracer.metrics
            metrics.counter("cluster.reads_in").add(stop - start)
            metrics.counter("cluster.founder_rounds").add(n_clusters)
            metrics.counter("cluster.pairs_screened").add(screened)
            metrics.counter("cluster.prefilter_pruned").add(pruned)
            metrics.counter("cluster.dp_comparisons").add(dp_rows)
        return assignment, n_clusters
