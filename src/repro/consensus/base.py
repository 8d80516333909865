"""Shared reconstruction interface.

All reconstructors implement :class:`Reconstructor`: given clusters of
noisy reads and the original length L, return a best-estimate strand of
exactly length L per cluster. Working with a fixed output length is what
the paper calls the *constrained* edit-distance median problem, and it is
what the storage pipeline needs (every molecule in an encoding unit has
the same length by construction).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Sequence

import numpy as np

from repro.channel.readbatch import ReadBatch
from repro.codec.basemap import indices_to_bases
from repro.observability.trace import get_tracer


class Reconstructor:
    """Interface for consensus-finding algorithms.

    An engine implements one method, :meth:`reconstruct_batch`, which
    estimates every cluster of a :class:`~repro.channel.readbatch.ReadBatch`
    at once. :meth:`reconstruct` is its one-cluster case for callers
    holding base strings.
    """

    def reconstruct(self, reads: Sequence[str], length: int) -> str:
        """Return a length-``length`` estimate of one cluster's original
        strand: the cluster packed as a one-cluster batch, row 0 of
        :meth:`reconstruct_batch`."""
        batch = ReadBatch.from_strings([reads])
        return indices_to_bases(self.reconstruct_batch(batch, length)[0])

    def reconstruct_batch(self, batch: ReadBatch, length: int) -> np.ndarray:
        """Estimates for a whole batch as one ``(n_clusters, length)``
        ``int64`` array, in cluster order.

        This is the string-free decode hot path: the batch's flat buffer
        feeds the engine directly. Implementations must return exactly
        ``length`` symbols per cluster even for degenerate input (lost
        clusters, all-empty reads); those receive the engine's fill
        estimate, and callers that must not see them drop them first
        (:meth:`~repro.channel.readbatch.ReadBatch.drop_lost`).
        """
        raise NotImplementedError


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
