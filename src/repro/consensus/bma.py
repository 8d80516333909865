"""One-way Bitwise-Majority-Alignment-style reconstruction, batched.

This is the left-to-right scan the paper walks through in its Figure 2:
maintain one pointer per read; at every output position take a plurality
vote over the reads' current characters; for each read that disagrees with
the consensus, *guess* which error it suffered (substitution, insertion, or
deletion) by comparing its upcoming characters against an estimated
lookahead of the consensus, and adjust its pointer accordingly.

Wrong guesses propagate — which is exactly the mechanism behind the
reliability skew of the paper's Figure 3: positional error grows with the
distance scanned, so the far end of a strand is reconstructed much less
reliably than the near end.

The scan here is batched across *clusters* as well as reads: the reads of
every cluster in a unit live in one padded matrix (sentinel -1 past each
read's end) tagged with a per-read cluster id, and each per-position step —
per-cluster voting, lookahead estimation, error classification — is a
handful of numpy operations over the whole read axis. Per-cluster ballots
are segmented bincounts over ``cluster_id * n_alphabet + symbol``, so one
pass over the positions advances all 120+ clusters of an encoding unit at
once. The storage pipeline runs this scan for every unit, making it the
hottest loop in the repository; the frozen single-cluster original is a
test oracle (``tests/oracles/consensus.py``), pinned byte-identical by
the differential test suite.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.codec.basemap import bases_to_indices, indices_to_bases
from repro.consensus.base import Reconstructor, pack_index_clusters


class OneWayReconstructor(Reconstructor):
    """Left-to-right pointer-based majority reconstruction.

    Args:
        lookahead: how many upcoming consensus characters to estimate when
            classifying a disagreeing read's error type. The paper's worked
            example uses 2; 3 is slightly more robust and is the default.
        n_alphabet: alphabet size (4 for DNA, 2 for the binary analyses).
        fill_symbol: symbol emitted when every read is exhausted.
    """

    def __init__(self, lookahead: int = 3, n_alphabet: int = 4,
                 fill_symbol: int = 0) -> None:
        if lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {lookahead}")
        if not (0 <= fill_symbol < n_alphabet):
            raise ValueError("fill_symbol outside alphabet")
        self.lookahead = lookahead
        self.n_alphabet = n_alphabet
        self.fill_symbol = fill_symbol

    def reconstruct(self, reads: Sequence[str], length: int) -> str:
        arrays = [bases_to_indices(read) for read in reads]
        return indices_to_bases(self.reconstruct_indices(arrays, length))

    def reconstruct_indices(
        self, reads: Sequence[np.ndarray], length: int
    ) -> np.ndarray:
        return self.reconstruct_many_indices([reads], length)[0]

    def reconstruct_many_indices(
        self, clusters: Sequence[Sequence[np.ndarray]], length: int
    ) -> List[np.ndarray]:
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        n_clusters = len(clusters)
        # One padded matrix over every read of every cluster: sentinel -1
        # marks positions past a read's end. The extra window+2 columns let
        # every lookahead gather stay in bounds without per-step clipping.
        padded, lengths, cluster_of = pack_index_clusters(
            clusters, pad=self.lookahead + 2
        )
        if lengths.size == 0 or length == 0:
            return list(np.full((n_clusters, length), self.fill_symbol,
                                dtype=np.int64))
        return list(self.scan_padded(padded, lengths, cluster_of,
                                     n_clusters, length))

    def reconstruct_batch(self, batch, length: int) -> np.ndarray:
        """Columnar entry point: scan a whole
        :class:`~repro.channel.readbatch.ReadBatch` without touching
        per-read Python objects. The batch's flat buffer becomes the
        padded read matrix via one vectorized gather; empty reads are
        harmless (they are never active)."""
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        if batch.n_reads == 0 or length == 0:
            return np.full((batch.n_clusters, length), self.fill_symbol,
                           dtype=np.int64)
        padded, lengths = batch.padded_matrix(pad=self.lookahead + 2)
        return self.scan_padded(padded, lengths, batch.cluster_ids,
                                batch.n_clusters, length)

    def scan_padded(
        self,
        padded: np.ndarray,
        lengths: np.ndarray,
        cluster_of: np.ndarray,
        n_clusters: int,
        length: int,
    ) -> np.ndarray:
        """The batched scan over an already-padded read matrix.

        ``padded`` must be int64 with sentinel -1 and at least
        ``lookahead + 2`` sentinel columns past the longest read; rows are
        reads, tagged by ``cluster_of``. Returns ``(n_clusters, length)``.
        """
        output = np.full((n_clusters, length), self.fill_symbol,
                         dtype=np.int64)
        window = self.lookahead
        n_reads = padded.shape[0]
        pointers = np.zeros(n_reads, dtype=np.int64)
        rows = np.arange(n_reads)
        offsets = np.arange(1, window + 1)

        for position in range(length):
            active = pointers < lengths
            if not np.any(active):
                break  # every read of every cluster exhausted
            current = padded[rows, pointers]
            votes = self._segmented_counts(
                cluster_of[active], current[active], n_clusters
            )
            consensus = np.argmax(votes, axis=1)
            # Clusters whose reads are all exhausted cast no votes; their
            # output stays at fill_symbol from here on (the single-cluster
            # scan breaks out of its loop at this point).
            voted = votes.sum(axis=1) > 0
            output[voted, position] = consensus[voted]

            consensus_per_read = consensus[cluster_of]
            agree = active & (current == consensus_per_read)
            lookahead = self._estimate_lookahead(
                padded, pointers, agree, cluster_of, n_clusters, offsets
            )
            disagree_rows = np.flatnonzero(active & ~agree)
            pointers[agree] += 1
            if disagree_rows.size:
                pointers[disagree_rows] += self._classify_errors(
                    padded,
                    pointers[disagree_rows],
                    disagree_rows,
                    consensus_per_read[disagree_rows],
                    lookahead[cluster_of[disagree_rows]],
                )
        return output

    def _segmented_counts(
        self, segments: np.ndarray, symbols: np.ndarray, n_segments: int
    ) -> np.ndarray:
        """Per-cluster ballot: counts[c, s] = votes for symbol s in cluster c."""
        flat = np.bincount(
            segments * self.n_alphabet + symbols,
            minlength=n_segments * self.n_alphabet,
        )
        return flat.reshape(n_segments, self.n_alphabet)

    def _estimate_lookahead(
        self,
        padded: np.ndarray,
        pointers: np.ndarray,
        agree: np.ndarray,
        cluster_of: np.ndarray,
        n_clusters: int,
        offsets: np.ndarray,
    ) -> np.ndarray:
        """Majority-vote the next ``window`` characters per cluster.

        Reads whose current character matches their cluster's consensus are
        presumed synchronized, so their upcoming characters are the best
        available estimate of the upcoming consensus. Cluster/offset slots
        with no votes carry the sentinel -1 (they match nothing during
        scoring).
        """
        window = np.full((n_clusters, len(offsets)), -1, dtype=np.int64)
        agree_rows = np.flatnonzero(agree)
        if agree_rows.size == 0:
            return window
        # ahead[i, o] = agreeing read i's character at pointer + 1 + o.
        ahead = padded[agree_rows[:, None],
                       pointers[agree_rows][:, None] + offsets[None, :]]
        clusters = cluster_of[agree_rows]
        for o in range(len(offsets)):
            column = ahead[:, o]
            valid = column >= 0
            if np.any(valid):
                counts = self._segmented_counts(
                    clusters[valid], column[valid], n_clusters
                )
                has_votes = counts.sum(axis=1) > 0
                window[has_votes, o] = np.argmax(counts, axis=1)[has_votes]
        return window

    def _classify_errors(
        self,
        padded: np.ndarray,
        pointers: np.ndarray,
        read_rows: np.ndarray,
        consensus: np.ndarray,
        lookahead: np.ndarray,
    ) -> np.ndarray:
        """Pointer advances for the disagreeing reads (vectorized).

        Three hypotheses are scored by how well the read's characters after
        the hypothesized correction line up with its cluster's estimated
        lookahead:

        * substitution — current character wrong; advance by 1;
        * deletion — the read lost the consensus character, so its current
          character belongs to the next position; advance by 0;
        * insertion — current character spurious and the *next* one should
          match the consensus; advance by 2.

        Ties resolve substitution > deletion > insertion (strict
        improvements only), keeping the scan deterministic. ``consensus``
        and ``lookahead`` are per-read here (each read carries its own
        cluster's values).
        """
        valid_la = lookahead >= 0
        gather = np.arange(lookahead.shape[1])

        def score(start_offset: int) -> np.ndarray:
            chars = padded[read_rows[:, None],
                           pointers[:, None] + start_offset + gather[None, :]]
            return ((chars == lookahead) & valid_la).sum(axis=1)

        substitution = score(1)
        deletion = score(0)
        next_char = padded[read_rows, pointers + 1]
        insertion = np.where(next_char == consensus, 1 + score(2), -1)

        advance = np.ones(len(read_rows), dtype=np.int64)
        best = substitution.copy()
        better_deletion = deletion > best
        advance[better_deletion] = 0
        np.maximum(best, deletion, out=best)
        advance[insertion > best] = 2
        return advance
