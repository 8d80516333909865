"""Two-way (bidirectional) reconstruction — the paper's pipeline consensus.

The consensus problem is symmetric (Section 3.1): running the one-way scan
on the reversed reads reconstructs the strand right-to-left, so its
*early* (right-end) positions are the reliable ones. The two-way
reconstructor therefore keeps the first half of the forward scan and the
second half of the backward scan — "the best of both worlds" — which moves
the error peak from the far end (Fig 3) to the middle (Fig 4).

Both directions ride *one* batched one-way scan. The ``int8`` read matrix
(sentinel -1 past each read's end) is built once from the batch's bases
back to back, with one weighted row per distinct (cluster, read), and holds
every such row twice: forward, and reversed under cluster id
``+ n_clusters`` with the same weight. A step of the scan then votes, and
pays for disagreeing rows, in both directions at once. A scan's output at a position never
depends on later positions, so the stacked scan stops once each direction
has produced the half it keeps: ``L - L // 2`` steps instead of two scans
of ``L``.
"""

from __future__ import annotations

import numpy as np

from repro.channel.readbatch import ReadBatch
from repro.consensus.bma import OneWayReconstructor


class TwoWayReconstructor(OneWayReconstructor):
    """Forward + backward one-way scans, best half of each.

    Args:
        lookahead: lookahead window of the scan (both directions).
        n_alphabet: alphabet size.
    """

    def __init__(self, lookahead: int = 3, n_alphabet: int = 4) -> None:
        super().__init__(lookahead=lookahead, n_alphabet=n_alphabet)

    def reconstruct_batch(self, batch: ReadBatch, length: int) -> np.ndarray:
        """Columnar entry point: both directions as one stacked scan."""
        n_clusters = batch.n_clusters
        reads = self._read_matrix(batch, length, both_ways=True)
        if reads is None:
            return np.full((n_clusters, length), self.fill_symbol,
                           dtype=np.int64)
        matrix, cluster_of, weights = reads
        midpoint = length // 2
        scanned = self.scan_padded(matrix, cluster_of, 2 * n_clusters,
                                   length - midpoint, weights)
        return np.concatenate(
            [scanned[:n_clusters, :midpoint], scanned[n_clusters:, ::-1]],
            axis=1,
        )
