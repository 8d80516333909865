"""Frozen scalar PCR selector (the primers layer's differential oracle).

This is the original per-read, per-cut loop that
:meth:`repro.primers.pcr.PcrSelector.select_batch` replaced: each read's
prefix (and suffix) windows around the primer length are compared one by
one against the primer, the first cut with the smallest banded edit
distance wins, and a read is kept when both primers match within
``max_errors`` and the forward cut does not pass the reverse one. Its
distances come from the frozen integer DP in :mod:`oracles.cluster`,
never from the bit-parallel kernel ``select_batch`` runs on.

``tests/primers/test_pcr.py`` pins ``select_batch`` to it: the
same reads selected, cut at the same windows. Do not optimize this
module; it exists to stay slow and obviously correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from oracles.cluster import banded_edit_distance_reference
from repro.primers.design import PrimerPair


@dataclass
class ReferencePcrSelector:
    """Selects and trims reads carrying a target primer pair, one read
    and one candidate cut at a time.

    Args:
        pair: the target file's primer pair.
        max_errors: maximum edit distance tolerated in each primer match.
        window_slack: extra bases around the expected primer region to
            search when locating the trim boundary.
    """

    pair: PrimerPair
    max_errors: int = 3
    window_slack: int = 4

    def matches(self, read: str) -> bool:
        """True when both primers are found within the error budget."""
        return (
            self._locate_forward(read) is not None
            and self._locate_reverse(read) is not None
        )

    def select(self, reads: Sequence[str]) -> List[str]:
        """Filter to matching reads and trim the primer regions off."""
        selected = []
        for read in reads:
            trimmed = self.trim(read)
            if trimmed is not None:
                selected.append(trimmed)
        return selected

    def trim(self, read: str) -> Optional[str]:
        """Strip both primers; None when either primer does not match."""
        start = self._locate_forward(read)
        end = self._locate_reverse(read)
        if start is None or end is None or start > end:
            return None
        return read[start:end]

    def _locate_forward(self, read: str) -> Optional[int]:
        """Best end-offset of the forward primer near the read's start."""
        primer = self.pair.forward
        best_cut, best_distance = None, self.max_errors + 1
        for cut in self._cut_range(len(primer), len(read)):
            distance = banded_edit_distance_reference(
                read[:cut], primer, self.max_errors
            )
            if distance < best_distance:
                best_cut, best_distance = cut, distance
        return best_cut

    def _locate_reverse(self, read: str) -> Optional[int]:
        """Best start-offset of the reverse primer near the read's end."""
        primer = self.pair.reverse
        best_cut, best_distance = None, self.max_errors + 1
        for cut in self._cut_range(len(primer), len(read)):
            distance = banded_edit_distance_reference(
                read[len(read) - cut:], primer, self.max_errors
            )
            if distance < best_distance:
                best_cut, best_distance = len(read) - cut, distance
        return best_cut

    def _cut_range(self, primer_length: int, read_length: int) -> range:
        low = max(0, primer_length - self.window_slack)
        high = min(read_length, primer_length + self.window_slack)
        return range(low, high + 1)
