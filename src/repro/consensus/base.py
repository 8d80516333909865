"""Shared reconstruction interface and voting helpers.

All reconstructors implement :class:`Reconstructor`: given a cluster of
noisy reads and the original length L, return a best-estimate string of
exactly length L. Working with a fixed output length is what the paper
calls the *constrained* edit-distance median problem, and it is what the
storage pipeline needs (every molecule in an encoding unit has the same
length by construction).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Sequence

import numpy as np

from repro.codec.basemap import bases_to_indices, indices_to_bases
from repro.observability.trace import get_tracer


class Reconstructor:
    """Interface for consensus-finding algorithms.

    Besides the one-cluster entry points, every reconstructor exposes a
    *batch* API (:meth:`reconstruct_many` / :meth:`reconstruct_many_indices`)
    taking a whole unit's worth of clusters at once. The default
    implementations simply loop; engines that can advance many clusters
    simultaneously override them with a genuinely batched computation,
    which is where the pipeline's decode speed comes from. (The pointer
    scans in :mod:`repro.consensus.bma` have one: every entry point packs
    its clusters into a :class:`~repro.channel.readbatch.ReadBatch` and
    rides :meth:`reconstruct_batch`.)
    """

    def reconstruct(self, reads: Sequence[str], length: int) -> str:
        """Return a length-``length`` estimate of the cluster's original strand.

        Implementations must return *some* string of exactly the requested
        length even for degenerate inputs (empty cluster, all-empty reads);
        the pipeline treats obviously-degenerate output as erasures upstream.
        """
        raise NotImplementedError

    def reconstruct_indices(
        self, reads: Sequence[np.ndarray], length: int
    ) -> np.ndarray:
        """Index-array variant; default converts through strings."""
        strands = [indices_to_bases(r) for r in reads]
        return bases_to_indices(self.reconstruct(strands, length))

    def reconstruct_many(
        self, clusters: Sequence[Sequence[str]], length: int
    ) -> List[str]:
        """Reconstruct every cluster of a unit; one estimate per cluster.

        ``clusters[i]`` is the read list of cluster ``i``; the result keeps
        cluster order. Batched engines produce output identical to calling
        :meth:`reconstruct` per cluster — only faster.
        """
        index_clusters = [
            [bases_to_indices(read) for read in reads] for reads in clusters
        ]
        return [
            indices_to_bases(estimate)
            for estimate in self.reconstruct_many_indices(index_clusters, length)
        ]

    def reconstruct_many_indices(
        self, clusters: Sequence[Sequence[np.ndarray]], length: int
    ) -> List[np.ndarray]:
        """Index-array batch variant; default loops over the clusters."""
        return [self.reconstruct_indices(reads, length) for reads in clusters]

    def reconstruct_batch(self, batch, length: int) -> np.ndarray:
        """Columnar batch variant: estimates for a whole
        :class:`~repro.channel.readbatch.ReadBatch` as one
        ``(n_clusters, length)`` array.

        This is the string-free decode hot path: the batch's flat buffer
        feeds the engine directly. The default unpacks the batch into
        per-cluster index lists (zero-copy views); the engines override
        it to build their read matrix from the flat buffer whole.
        Lost clusters receive the engine's degenerate (fill) estimate —
        callers that must not see them drop them first
        (:meth:`~repro.channel.readbatch.ReadBatch.drop_lost`).
        """
        estimates = self.reconstruct_many_indices(
            batch.clusters_as_indices(), length
        )
        if not estimates:
            return np.zeros((0, length), dtype=np.int64)
        return np.stack([np.asarray(e, dtype=np.int64) for e in estimates])

    def reconstruct_batch_with_confidence(self, batch, length: int):
        """Columnar confidence variant: ``(estimate, confidence)`` pairs
        for a whole :class:`~repro.channel.readbatch.ReadBatch`.

        Only meaningful for reconstructors that expose per-position
        confidence (``reconstruct_with_confidence``, see
        :class:`repro.consensus.posterior.PosteriorReconstructor`, which
        overrides this with a genuinely batched lattice sweep); the
        default unpacks the batch into zero-copy index lists and rides
        the best per-cluster confidence entry point available. Calling it
        on a reconstructor without confidence output raises
        ``AttributeError``.
        """
        index_clusters = batch.clusters_as_indices()
        if hasattr(self, "reconstruct_many_with_confidence"):
            return self.reconstruct_many_with_confidence(
                index_clusters, length
            )
        return [
            self.reconstruct_with_confidence(reads, length)
            for reads in index_clusters
        ]


@contextmanager
def consensus_span(batch):
    """The ``consensus.reconstruct`` stage span around one batch call.

    A recording tracer also counts the batch into the
    ``consensus.clusters`` and ``consensus.reads`` counters, so every
    caller (the pipeline's ``receive_many``, the skew profiles) and every
    reconstructor report uniformly; the batched refiners add their own
    iteration/sweep counters on top.
    """
    tracer = get_tracer()
    if tracer.is_recording:
        tracer.metrics.counter("consensus.clusters").add(batch.n_clusters)
        tracer.metrics.counter("consensus.reads").add(batch.n_reads)
    with tracer.span("consensus.reconstruct", n_clusters=batch.n_clusters,
                     n_reads=batch.n_reads):
        yield


def pack_index_clusters(
    clusters: Sequence[Sequence[np.ndarray]],
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Pack per-cluster index lists into one padded read stack.

    The list-path on-ramp of the refinement layers
    (:mod:`repro.consensus.iterative` / :mod:`repro.consensus.posterior`):
    all non-empty reads of all clusters as one ``(n_reads, max_len)``
    ``int64`` matrix with sentinel ``-1`` past each read's end, plus
    per-read lengths and (non-decreasing) cluster ids. Empty reads are
    dropped — they can neither vote nor shift a distance comparison.
    """
    reads: List[np.ndarray] = []
    cluster_ids: List[int] = []
    for c, cluster in enumerate(clusters):
        for read in cluster:
            read = np.asarray(read, dtype=np.int64)
            if read.size:
                reads.append(read)
                cluster_ids.append(c)
    if not reads:
        return (np.zeros((0, 0), dtype=np.int64),
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    lengths = np.array([r.size for r in reads], dtype=np.int64)
    padded = np.full((len(reads), int(lengths.max())), -1, dtype=np.int64)
    for i, read in enumerate(reads):
        padded[i, : read.size] = read
    return padded, lengths, np.array(cluster_ids, dtype=np.int64)


def majority_vote(
    symbols: Sequence[int],
    n_alphabet: int = 4,
    tie_break: str = "lowest",
) -> Optional[int]:
    """Plurality vote over symbols; None for an empty ballot.

    Args:
        symbols: candidate symbols in ``[0, n_alphabet)``.
        n_alphabet: alphabet size.
        tie_break: "lowest" picks the smallest symbol among ties, which
            keeps reconstruction deterministic.
    """
    if len(symbols) == 0:
        return None
    counts = np.bincount(np.asarray(symbols, dtype=np.int64), minlength=n_alphabet)
    if tie_break != "lowest":
        raise ValueError(f"unknown tie_break {tie_break!r}")
    return int(np.argmax(counts))


def column_votes(
    reads: List[np.ndarray], pointers: np.ndarray, n_alphabet: int = 4
) -> np.ndarray:
    """Count votes for each symbol among reads' current characters.

    Reads whose pointer has run past their end do not vote.
    """
    counts = np.zeros(n_alphabet, dtype=np.int64)
    for read, pointer in zip(reads, pointers):
        if 0 <= pointer < len(read):
            counts[read[pointer]] += 1
    return counts
