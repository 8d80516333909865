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

The scan here is batched across *clusters* as well as reads, and past one
vote per distinct read its cost scales with the reads that disagree. The
reads of every cluster live in one ``int8`` matrix with sentinel -1 past
each read's end, built by :meth:`reconstruct_batch` straight from a
:class:`~repro.channel.readbatch.ReadBatch`'s bases back to back (a tight
batch's buffer as it is, anything else gathered once). Reads equal in
content and cluster share one *weighted* row: at 1% error most reads of a
cluster are exact copies of its strand, and identical reads of one cluster
start at the same offset, see the same consensus and ballots at every step
and so make the same move, so one row of weight k casts exactly the votes
of its k copies. Every row keeps a flat cursor into the matrix. A step
gathers each row's current character (the sentinel marks exhausted reads)
and votes every cluster at once with one weighted ``bincount`` over
``(cluster, symbol)`` keys. Only then does it look at the rows that
disagree with their cluster's plurality: lookahead ballots are built for
just the clusters holding such a row, from those clusters' agreeing rows,
with one weighted ``bincount`` over ``(cluster, offset, symbol)`` keys, and
the error guess is scored for the disagreeing rows alone. Most clusters are
unanimous at most positions, so those clusters cost a step nothing past
their vote. The storage pipeline runs this scan for every unit, making it
the hottest loop in the repository; the frozen single-cluster original is a
test oracle (``tests/oracles/consensus.py``), pinned byte-identical by the
differential test suite.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.channel.readbatch import ReadBatch, packed_bases
from repro.consensus.base import Reconstructor


class OneWayReconstructor(Reconstructor):
    """Left-to-right pointer-based majority reconstruction.

    Args:
        lookahead: how many upcoming consensus characters to estimate when
            classifying a disagreeing read's error type. The paper's worked
            example uses 2; 3 is slightly more robust and is the default.
        n_alphabet: alphabet size (4 for DNA, 2 for the binary analyses);
            at most 127, the largest the ``int8`` read matrix can hold.
        fill_symbol: symbol emitted when every read is exhausted.
    """

    def __init__(self, lookahead: int = 3, n_alphabet: int = 4,
                 fill_symbol: int = 0) -> None:
        if lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {lookahead}")
        if not (2 <= n_alphabet <= 127):
            raise ValueError(
                f"n_alphabet must be in 2..127, got {n_alphabet}"
            )
        if not (0 <= fill_symbol < n_alphabet):
            raise ValueError("fill_symbol outside alphabet")
        self.lookahead = lookahead
        self.n_alphabet = n_alphabet
        self.fill_symbol = fill_symbol

    def reconstruct_batch(self, batch: ReadBatch, length: int) -> np.ndarray:
        """Columnar entry point: scan a whole
        :class:`~repro.channel.readbatch.ReadBatch` without touching
        per-read Python objects. Lost clusters and empty reads are
        harmless: they never vote, so their estimate is ``fill_symbol``."""
        reads = self._read_matrix(batch, length)
        if reads is None:
            return np.full((batch.n_clusters, length), self.fill_symbol,
                           dtype=np.int64)
        matrix, cluster_of, weights = reads
        return self.scan_padded(matrix, cluster_of, batch.n_clusters, length,
                                weights)

    def _read_matrix(
        self, batch: ReadBatch, length: int, both_ways: bool = False
    ) -> Optional[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
        """The scan's read matrix: one row per distinct (cluster, read).

        Rows hold the batch's non-empty reads as ``int8`` symbols with
        sentinel -1 past each read's end and at least ``lookahead + 2``
        more sentinel columns, so every gather of a step stays inside its
        row; the width is a whole number of 8-byte words. The symbols come
        from :func:`~repro.channel.readbatch.packed_bases`, so a tight
        batch's buffer is read as it is, with no second gather.

        Reads equal in content and cluster share one row, and ``weights``
        holds each row's number of copies; it is ``None`` when every row
        is distinct. The grouping is exact: a hash of each row's words and
        cluster id (:meth:`_row_keys`) only orders the rows, and adjacent
        rows merge after their words and cluster ids compare equal, so a
        hash collision can only leave copies unmerged. Rows keep batch
        order. With ``both_ways`` the distinct rows follow reversed, their
        cluster ids shifted by ``batch.n_clusters`` and their weights
        carried over. Returns ``(matrix, cluster_of, weights)``, or
        ``None`` when there is nothing to scan. Raises ``ValueError`` for
        a read symbol outside the alphabet, checked once with one ``max``
        over all symbols.
        """
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        keep = batch.lengths > 0
        lengths = batch.lengths[keep]
        if lengths.size == 0:
            return None
        # Empty reads hold no bases, so this is the kept reads' run.
        symbols = packed_bases(batch.buffer, batch.offsets, batch.lengths)
        top = int(symbols.max())
        if top >= self.n_alphabet:
            raise ValueError(
                f"read symbol {top} outside the {self.n_alphabet}-letter "
                "alphabet"
            )
        if length == 0:
            return None
        n_reads = lengths.size
        width = -(-(int(lengths.max()) + self.lookahead + 2) // 8) * 8
        # Row-major mask of the read cells, each row its read's length in
        # True and the rest False (one repeat, cheaper than a broadcast
        # compare): assigning the symbol run through it lays the reads out
        # one per row.
        cells = np.repeat(
            np.tile([True, False], n_reads),
            np.column_stack([lengths, width - lengths]).ravel(),
        ).reshape(n_reads, width)
        cluster_of = batch.cluster_ids[keep]
        matrix = np.full((n_reads, width), -1, dtype=np.int8)
        matrix[cells] = symbols

        words = matrix.view(np.uint64)
        keys = self._row_keys(words, cluster_of)
        order = np.argsort(keys)
        keys = keys[order]
        # Adjacent rows with equal keys are the candidate copies; each is
        # verified word by word before it merges.
        pairs = np.flatnonzero(keys[1:] == keys[:-1])
        before, after = order[pairs], order[pairs + 1]
        merge = cluster_of[before] == cluster_of[after]
        for column in words.T:
            merge &= column[before] == column[after]
        weights = None
        if merge.any():
            # A group starts at every sorted position that did not merge
            # into its predecessor; its first row stands for it.
            starts = np.ones(n_reads, dtype=bool)
            starts[pairs[merge] + 1] = False
            firsts = np.flatnonzero(starts)
            copies = np.zeros(n_reads, dtype=np.int64)
            copies[order[firsts]] = np.diff(firsts, append=n_reads)
            rows = np.flatnonzero(copies)
            weights = copies[rows]
            matrix = matrix[rows]
            cluster_of = cluster_of[rows]
            cells = cells[rows]
            symbols = matrix[cells]
        if both_ways:
            n_rows = matrix.shape[0]
            stacked = np.full((2 * n_rows, width), -1, dtype=np.int8)
            stacked[:n_rows] = matrix
            # The reversed run reverses every read and the row order, so
            # the reversed rows hold the reads last to first.
            stacked[n_rows:][cells[::-1]] = symbols[::-1]
            matrix = stacked
            cluster_of = np.concatenate(
                [cluster_of, cluster_of[::-1] + batch.n_clusters]
            )
            if weights is not None:
                weights = np.concatenate([weights, weights[::-1]])
        return matrix, cluster_of, weights

    def scan_padded(
        self,
        matrix: np.ndarray,
        cluster_of: np.ndarray,
        n_clusters: int,
        length: int,
        weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The batched scan over a read matrix (see :meth:`_read_matrix`).

        ``matrix`` is ``int8`` with sentinel -1 past each row's read and
        at least ``lookahead + 2`` sentinel columns past the longest; rows
        are reads, tagged by ``cluster_of`` in ``[0, n_clusters)``.
        ``weights``, when given, is each row's number of identical copies
        in its cluster: the row casts that many votes and ballot entries,
        which is exactly what its copies would cast, as they make the same
        move at every step. ``None`` scans every row once. Returns
        ``(n_clusters, length)``.
        """
        window = self.lookahead
        ballot_weights = None
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            # A row's weight at each of its lookahead offsets.
            ballot_weights = np.tile(weights, (window, 1))
        # Ballot slot 0 of every cluster (and of every lookahead offset)
        # collects the sentinel, so exhausted reads never vote. A ballot
        # winner w decodes to symbol w - 1; w = 0 means no votes and
        # decodes to -2, which matches no character, not even the
        # sentinel.
        stride = self.n_alphabet + 1
        decode = np.arange(-1, self.n_alphabet, dtype=np.int8)
        decode[0] = -2
        flat = matrix.ravel()
        # cursor[i] = flat index of row i's pointer.
        cursor = np.arange(matrix.shape[0], dtype=np.int64) * matrix.shape[1]
        vote_keys = cluster_of * stride + 1
        # Lookahead arrays are offset-major, (window, reads), so every
        # numpy loop runs along the long axis. Offset o of a read in
        # cluster c votes under key o * n_clusters * stride + the read's
        # vote key.
        ahead = np.arange(1, window + 1)[:, None]
        ahead_keys = (ahead - 1) * (n_clusters * stride)
        output = np.zeros((n_clusters, length), dtype=np.int64)

        for position in range(length):
            current = flat[cursor]
            votes = np.bincount(vote_keys + current, weights,
                                minlength=n_clusters * stride)
            votes = votes.reshape(n_clusters, stride)
            votes[:, 0] = 0
            winner = votes.argmax(axis=1)
            if not winner.any():
                break  # every read of every cluster exhausted
            output[:, position] = winner
            consensus = decode[winner]
            agree = current == consensus[cluster_of]
            # Active reads (off the sentinel) that do not agree; every
            # agreeing read is active, so xor is and-not.
            disagree = current >= 0
            disagree ^= agree
            rows = np.flatnonzero(disagree)
            if rows.size:
                # Lookahead ballots for just the clusters holding a
                # disagreeing read, from their agreeing reads (presumed
                # synchronized): one bincount over (cluster, offset,
                # symbol) keys.
                clusters = cluster_of[rows]
                hot = np.zeros(n_clusters, dtype=bool)
                hot[clusters] = True
                voters = np.flatnonzero(agree & hot[cluster_of])
                keys = ahead_keys + vote_keys[voters] \
                    + flat[ahead + cursor[voters]]
                ballots = np.bincount(
                    keys.ravel(),
                    None if ballot_weights is None
                    else ballot_weights[:, voters].ravel(),
                    minlength=window * n_clusters * stride,
                ).reshape(window, n_clusters, stride)[:, clusters]
                ballots[:, :, 0] = 0
                cursor[rows] += self._classify_errors(
                    flat, cursor[rows], consensus[clusters],
                    decode[ballots.argmax(axis=2)],
                )
            cursor += agree
        # Clusters whose reads are all exhausted cast no votes; their
        # output is fill_symbol from there on (the single-cluster scan
        # breaks out of its loop at that point).
        return np.where(output > 0, output - 1, self.fill_symbol)

    @staticmethod
    def _row_keys(words: np.ndarray, cluster_of: np.ndarray) -> np.ndarray:
        """One ``uint64`` sort key per row: its words and cluster id mixed
        by odd multipliers, wrapping mod 2**64. Equal rows of one cluster
        get equal keys; unequal rows seldom do, and then only stay
        unmerged."""
        mix = (np.arange(1, words.shape[1] + 2, dtype=np.uint64)
               * np.uint64(0x9E3779B97F4A7C15)) | np.uint64(1)
        return words @ mix[1:] + cluster_of.astype(np.uint64) * mix[0]

    @staticmethod
    def _classify_errors(
        flat: np.ndarray,
        cursor: np.ndarray,
        consensus: np.ndarray,
        lookahead: np.ndarray,
    ) -> np.ndarray:
        """Pointer advances for the disagreeing reads at ``cursor``.

        Three hypotheses are scored by how well the read's characters
        after the hypothesized correction line up with its cluster's
        estimated lookahead (offsets without votes match nothing):

        * substitution — current character wrong; advance by 1;
        * deletion — the read lost the consensus character, so its current
          character belongs to the next position; advance by 0;
        * insertion — current character spurious and the *next* one should
          match the consensus; advance by 2.

        Ties resolve substitution > deletion > insertion (strict
        improvements only), keeping the scan deterministic.
        ``consensus`` (per read) and ``lookahead`` (offset-major,
        ``(window, reads)``) carry each read's own cluster's values.
        """
        chars = flat[np.arange(lookahead.shape[0] + 2)[:, None] + cursor]
        substitution = (chars[1:-1] == lookahead).sum(axis=0)
        deletion = (chars[:-2] == lookahead).sum(axis=0)
        insertion = np.where(chars[1] == consensus,
                             1 + (chars[2:] == lookahead).sum(axis=0), -1)
        return np.where(insertion > np.maximum(substitution, deletion), 2,
                        np.where(deletion > substitution, 0, 1))
