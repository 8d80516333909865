"""PCR selection: error-tolerant primer matching and trimming.

The retrieval of a file starts by isolating molecules with the right
primer pair (the paper's Section 2.1). On noisy reads the primer region
itself carries errors, so matching is by banded edit distance against the
read's prefix/suffix windows, and trimming cuts at the best-matching
boundary.

Selection runs on the columnar read plane: :meth:`PcrSelector.
select_batch` matches every read of a :class:`~repro.channel.readbatch.
ReadBatch` with one stacked banded-DP sweep per candidate cut (the
clustering subsystem's :func:`~repro.cluster.distance.
banded_edit_distances_stack` kernel) and trims zero-copy — the selected
batch re-windows the parent's base buffer. Reads and cuts are identical
to the frozen per-read scalar loop in ``tests/oracles/primers.py``
(distances capped at ``band + 1``, the first minimal cut scanning
ascending), pinned by a property test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.channel.readbatch import ReadBatch
from repro.cluster.distance import banded_edit_distances_stack
from repro.codec.basemap import bases_to_indices
from repro.primers.design import PrimerPair


def attach_primers(payload: str, pair: PrimerPair) -> str:
    """Prepend the forward and append the reverse primer to a payload."""
    return pair.forward + payload + pair.reverse


@dataclass
class PcrSelector:
    """Selects and trims reads carrying a target primer pair.

    Args:
        pair: the target file's primer pair.
        max_errors: maximum edit distance tolerated in each primer match.
        window_slack: extra bases around the expected primer region to
            search when locating the trim boundary.
    """

    pair: PrimerPair
    max_errors: int = 3
    window_slack: int = 4

    def select_batch(self, batch: ReadBatch) -> ReadBatch:
        """Keep the reads carrying both primers and trim them, zero-copy.

        Returns a batch over the *same* base buffer whose read windows
        are the trimmed payload regions of the matching reads. Cluster
        structure is preserved (``n_clusters`` and ``source_indices``
        unchanged; clusters whose reads all fail selection keep their id
        with zero reads), so the result feeds the clustering and decode
        planes directly.
        """
        f_dist, f_cut = self._locate_batch(batch, self.pair.forward,
                                           suffix=False)
        r_dist, r_cut = self._locate_batch(batch, self.pair.reverse,
                                           suffix=True)
        starts = f_cut
        ends = batch.lengths - r_cut
        keep = (
            (f_dist <= self.max_errors)
            & (r_dist <= self.max_errors)
            & (starts <= ends)
        )
        return ReadBatch(
            batch.buffer,
            batch.offsets[keep] + starts[keep],
            ends[keep] - starts[keep],
            batch.cluster_ids[keep],
            n_clusters=batch.n_clusters,
            source_indices=batch.source_indices,
        )

    def _locate_batch(
        self, batch: ReadBatch, primer: str, suffix: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Best primer match per read over the cut window, stacked.

        One :func:`~repro.cluster.distance.banded_edit_distances_stack`
        sweep per candidate cut compares every eligible read's prefix
        (or suffix) window against the primer; cuts scan ascending and
        update on strictly smaller distance, so the first minimal cut
        wins. Returns ``(distances, cuts)`` — distance capped at
        ``max_errors + 1`` (no match), ``cuts`` counted from the read's
        start (prefix) or end (suffix).
        """
        target = bases_to_indices(primer).astype(np.int16)
        plen = target.size
        band = self.max_errors
        lengths = batch.lengths
        n_reads = lengths.size
        best = np.full(n_reads, band + 1, dtype=np.int64)
        cuts = np.zeros(n_reads, dtype=np.int64)
        plens = np.full(n_reads, plen, dtype=np.int64)
        for cut in range(max(0, plen - self.window_slack),
                         plen + self.window_slack + 1):
            idx = np.flatnonzero(lengths >= cut)
            if idx.size == 0:
                continue
            if cut == 0:
                distances = np.full(idx.size, min(plen, band + 1),
                                    dtype=np.int64)
            else:
                starts = batch.offsets[idx]
                if suffix:
                    starts = starts + lengths[idx] - cut
                windows = batch.buffer[
                    starts[:, None] + np.arange(cut, dtype=np.int64)
                ].astype(np.int16)
                distances = banded_edit_distances_stack(
                    windows,
                    np.full(idx.size, cut, dtype=np.int64),
                    np.broadcast_to(target, (idx.size, plen)),
                    plens[:idx.size],
                    band,
                )
            better = distances < best[idx]
            improved = idx[better]
            best[improved] = distances[better]
            cuts[improved] = cut
        return best, cuts
