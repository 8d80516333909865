"""Primer design under biochemical and separability constraints.

Generated primers must (i) satisfy the homopolymer and GC-content
constraints that make them synthesizable and PCR-friendly, and (ii) be far
from each other in edit distance so that the PCR selector cannot confuse
two files' keys even on noisy reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.cluster.distance import edit_distance
from repro.codec.basemap import random_bases
from repro.codec.constraints import violates_constraints
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class PrimerPair:
    """A file's access key: a forward and a reverse primer."""

    forward: str
    reverse: str


class PrimerDesigner:
    """Rejection-sampling designer for mutually-distant constrained primers.

    Args:
        length: primer length in bases (each of forward/reverse).
        min_distance: minimum pairwise edit distance between any two
            primers in the designed set.
        max_homopolymer: longest allowed single-base run.
        gc_low / gc_high: allowed GC-content window.
        max_attempts: rejection-sampling budget per primer.
    """

    def __init__(
        self,
        length: int = 20,
        min_distance: int = 8,
        max_homopolymer: int = 3,
        gc_low: float = 0.4,
        gc_high: float = 0.6,
        max_attempts: int = 10_000,
    ) -> None:
        if length < 4:
            raise ValueError(f"primer length must be >= 4, got {length}")
        if min_distance < 1:
            raise ValueError(f"min_distance must be >= 1, got {min_distance}")
        self.length = length
        self.min_distance = min_distance
        self.max_homopolymer = max_homopolymer
        self.gc_low = gc_low
        self.gc_high = gc_high
        self.max_attempts = max_attempts

    def design_set(self, n_pairs: int, rng: RngLike = None) -> List[PrimerPair]:
        """Design ``n_pairs`` primer pairs (2*n_pairs mutually distant primers)."""
        generator = ensure_rng(rng)
        primers: List[str] = []
        for _ in range(2 * n_pairs):
            primers.append(self._design_one(primers, generator))
        return [
            PrimerPair(forward=primers[2 * i], reverse=primers[2 * i + 1])
            for i in range(n_pairs)
        ]

    def _design_one(self, existing: List[str], generator) -> str:
        for _ in range(self.max_attempts):
            candidate = random_bases(self.length, generator)
            if violates_constraints(
                candidate,
                max_run=self.max_homopolymer,
                gc_low=self.gc_low,
                gc_high=self.gc_high,
            ):
                continue
            if all(
                edit_distance(candidate, other) >= self.min_distance
                for other in existing
            ):
                return candidate
        raise RuntimeError(
            f"could not design a primer after {self.max_attempts} attempts; "
            "relax the constraints or shorten the set"
        )
