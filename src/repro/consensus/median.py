"""Exact constrained edit-distance median via branch and bound.

The paper's Section 3.2 asks whether the reliability skew is an artifact of
practical algorithms or fundamental to trace reconstruction. It answers by
computing, for short binary strings, the *optimal* reconstruction — a
string of the original length L minimizing the sum of edit distances to all
reads — and selecting among ties *adversarially* (preferring candidates
more accurate in the middle than at the ends, i.e. trying to create the
opposite skew). The skew survives even then (its Figure 6).

Finding the (unconstrained) edit-distance median is NP-complete, and so is
this constrained variant, so exhaustive search is unavoidable. The search
here is a depth-first walk of the length-L prefix tree with:

* incremental edit-distance DP rows per read (O(sum read lengths) per node);
* a lower bound per read of ``min_j (row[j] + |remaining_prefix -
  remaining_read|)``, pruning subtrees that cannot beat the best sum;
* an initial bound seeded by the two-way heuristic so pruning bites early;
* collection of *all* optimal strings (up to a cap) for tie analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.channel.readbatch import ReadBatch
from repro.cluster.distance import edit_distance_indices
from repro.consensus.base import Reconstructor
from repro.consensus.two_way import TwoWayReconstructor


@dataclass
class MedianResult:
    """Outcome of an exact median search.

    Attributes:
        cost: minimal sum of edit distances across all length-L strings.
        candidates: all optimal strings found (index arrays), possibly
            truncated to the collection cap.
        truncated: True when more optima existed than the cap allowed.
    """

    cost: int
    candidates: List[np.ndarray]
    truncated: bool


class OptimalMedianReconstructor(Reconstructor):
    """Brute-force optimal reconstruction for short strings.

    Args:
        n_alphabet: alphabet size (2 for the paper's Figure 6, 4 for DNA).
        max_candidates: cap on how many tied optima to collect.
    """

    def __init__(self, n_alphabet: int = 2, max_candidates: int = 4096) -> None:
        if n_alphabet < 2:
            raise ValueError(f"n_alphabet must be >= 2, got {n_alphabet}")
        if max_candidates < 1:
            raise ValueError(f"max_candidates must be >= 1, got {max_candidates}")
        self.n_alphabet = n_alphabet
        self.max_candidates = max_candidates

    def reconstruct_batch(self, batch: ReadBatch, length: int) -> np.ndarray:
        """Exact medians of every cluster: one batched two-way pass seeds
        each search's pruning bound, then the branch-and-bound searches
        run per cluster (they share no state)."""
        seeds = TwoWayReconstructor(
            n_alphabet=self.n_alphabet
        ).reconstruct_batch(batch, length)
        estimates = np.zeros((batch.n_clusters, length), dtype=np.int64)
        for cluster, seed in enumerate(seeds):
            estimates[cluster] = self.search(
                batch.reads_of(cluster), length, seed=seed
            ).candidates[0]
        return estimates

    def search(
        self,
        reads: Sequence[np.ndarray],
        length: int,
        seed: Optional[np.ndarray] = None,
    ) -> MedianResult:
        """Run the exact search and return cost plus all tied optima.

        Args:
            reads: the cluster's reads as index arrays.
            length: the constrained output length L.
            seed: optional heuristic solution used only to initialize the
                pruning bound (a precomputed two-way estimate); computed
                internally when omitted.
        """
        reads = [np.asarray(r, dtype=np.int64) for r in reads]
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        if not reads:
            return MedianResult(
                cost=0,
                candidates=[np.zeros(length, dtype=np.int64)],
                truncated=False,
            )
        search = _BranchAndBound(
            reads, length, self.n_alphabet, self.max_candidates, seed=seed
        )
        return search.run()

    def reconstruct_adversarial(
        self,
        reads: Sequence[np.ndarray],
        length: int,
        original: np.ndarray,
    ) -> np.ndarray:
        """Pick the tied optimum that *opposes* the expected skew.

        Among all optimal strings, select the one most accurate towards the
        middle and least accurate towards the ends relative to ``original``
        — the paper's adversarial selection for its Figure 6. If the skew
        still shows up under this selection, it cannot be an artifact of
        tie-breaking.
        """
        original = np.asarray(original, dtype=np.int64)
        if original.shape != (length,):
            raise ValueError(f"original must have length {length}")
        result = self.search(reads, length)
        center = (length - 1) / 2.0
        # Weight grows towards the middle; maximizing the weighted match
        # count prefers candidates correct in the middle / wrong at the ends.
        weights = (length / 2.0) - np.abs(np.arange(length) - center)
        best_candidate = None
        best_score = -np.inf
        for candidate in result.candidates:
            score = float(np.sum((candidate == original) * weights))
            if score > best_score:
                best_score = score
                best_candidate = candidate
        return best_candidate


class _BranchAndBound:
    """DFS over the length-L prefix tree with per-read DP rows."""

    def __init__(
        self,
        reads: List[np.ndarray],
        length: int,
        n_alphabet: int,
        max_candidates: int,
        seed: Optional[np.ndarray] = None,
    ) -> None:
        self.reads = reads
        self.length = length
        self.n_alphabet = n_alphabet
        self.max_candidates = max_candidates
        self.read_lengths = [len(r) for r in reads]
        self.best_cost: Optional[int] = None
        self.candidates: List[np.ndarray] = []
        self.truncated = False
        self._prefix = np.zeros(length, dtype=np.int64)
        # Seed the bound with a good heuristic solution so pruning starts hot.
        if seed is None:
            seed = TwoWayReconstructor(
                n_alphabet=n_alphabet
            ).reconstruct_batch(ReadBatch.from_arrays([reads]), length)[0]
        self.best_cost = int(
            sum(edit_distance_indices(seed, read) for read in reads)
        )

    def run(self) -> MedianResult:
        initial_rows = [
            np.arange(n + 1, dtype=np.int64) for n in self.read_lengths
        ]
        self._descend(0, initial_rows)
        return MedianResult(
            cost=int(self.best_cost),
            candidates=self.candidates,
            truncated=self.truncated,
        )

    def _descend(self, depth: int, rows: List[np.ndarray]) -> None:
        if depth == self.length:
            cost = int(sum(row[-1] for row in rows))
            self._record(cost, self._prefix.copy())
            return
        remaining = self.length - depth - 1
        children = []
        for symbol in range(self.n_alphabet):
            new_rows = [
                self._advance_row(rows[i], self.reads[i], symbol)
                for i in range(len(self.reads))
            ]
            bound = self._lower_bound(new_rows, remaining)
            children.append((bound, symbol, new_rows))
        children.sort(key=lambda item: (item[0], item[1]))
        for bound, symbol, new_rows in children:
            if self.best_cost is not None and bound > self.best_cost:
                continue
            if (
                self.best_cost is not None
                and bound == self.best_cost
                and len(self.candidates) >= self.max_candidates
            ):
                self.truncated = True
                continue
            self._prefix[depth] = symbol
            self._descend(depth + 1, new_rows)

    def _record(self, cost: int, candidate: np.ndarray) -> None:
        if self.best_cost is None or cost < self.best_cost:
            self.best_cost = cost
            self.candidates = [candidate]
            self.truncated = False
        elif cost == self.best_cost:
            # DFS leaves are distinct paths, so a tie is never a repeat.
            if len(self.candidates) < self.max_candidates:
                self.candidates.append(candidate)
            else:
                self.truncated = True

    @staticmethod
    def _advance_row(row: np.ndarray, read: np.ndarray, symbol: int) -> np.ndarray:
        """Extend the prefix by ``symbol``: one edit-distance DP row step."""
        m = len(read)
        offsets = np.arange(m + 1, dtype=np.int64)
        candidates = np.empty(m + 1, dtype=np.int64)
        candidates[0] = row[0] + 1
        substitution = (read != symbol).astype(np.int64)
        candidates[1:] = np.minimum(row[:-1] + substitution, row[1:] + 1)
        return np.minimum.accumulate(candidates - offsets) + offsets

    def _lower_bound(self, rows: List[np.ndarray], remaining: int) -> int:
        """Sum over reads of the cheapest possible completion cost.

        From DP state j the remaining prefix must still consume the last
        ``len(read) - j`` read characters using ``remaining`` appended
        symbols, which costs at least their length difference.
        """
        total = 0
        for row, n in zip(rows, self.read_lengths):
            tails = np.abs((n - np.arange(n + 1)) - remaining)
            total += int(np.min(row + tails))
        return total
