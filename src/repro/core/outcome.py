"""The columnar decode outcome: one set of arrays from consensus to bits.

Each decode stage returns every unit's outcome as stacked arrays:

* :meth:`~repro.core.pipeline.DnaStoragePipeline.receive_many` returns
  :class:`ReceivedUnits` — received matrices, erased columns, invalid
  strand counts, duplicate claims and low-confidence cells;
* :meth:`~repro.core.pipeline.DnaStoragePipeline.correct_matrix_many`
  returns :class:`CorrectedUnits` — corrected matrices plus
  :class:`UnitReports`, the per-codeword verdicts;
* :meth:`~repro.core.pipeline.DnaStoragePipeline.correct_many` returns
  :class:`DecodedUnits` — every unit's data bits in placement order, one
  ``(U, capacity_bits)`` stack, plus the same :class:`UnitReports`.

The store and the service read verdicts and bits straight from these
arrays. The per-unit dataclasses :class:`ReceivedUnit` and
:class:`DecodeReport` stay the public per-unit view: each outcome is a
sequence of them (or of ``(payload, report)`` pairs), built on demand
when it is indexed or iterated.
"""

from __future__ import annotations

import operator
from collections import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np


@dataclass
class ReceivedUnit:
    """Raw matrix reassembled from consensus strands, pre-correction.

    Attributes:
        matrix: received symbols (zeros where nothing was received).
        erased_columns: columns with no (validly indexed) strand.
        duplicate_columns: columns claimed by more than one cluster.
        invalid_strands: consensus strands dropped for a bad index or a
            length other than the designed strand length.
        cell_erasures: (row, column) cells the consensus flagged as
            low-confidence (only populated by confidence-aware receive).
    """

    matrix: np.ndarray
    erased_columns: List[int]
    duplicate_columns: List[int]
    invalid_strands: int
    cell_erasures: List[Tuple[int, int]] = field(default_factory=list)


@dataclass
class DecodeReport:
    """Outcome statistics of a unit decode.

    Attributes:
        erased_columns: molecules lost before correction.
        failed_codewords: codeword ids the RS decoder gave up on.
        corrected_symbols: symbols fixed across all codewords.
        clean: True when every codeword decoded successfully.
    """

    erased_columns: List[int]
    failed_codewords: List[int]
    corrected_symbols: int

    @property
    def clean(self) -> bool:
        return not self.failed_codewords


def _unit(index, n_units: int) -> int:
    """A unit index, negative ones counted from the end."""
    return range(n_units)[operator.index(index)]


def _rows_of(table: np.ndarray, unit: int) -> np.ndarray:
    """The rows of a unit-sorted ``(unit, ...)`` table that belong to
    ``unit``."""
    lo, hi = np.searchsorted(table[:, 0], [unit, unit + 1])
    return table[lo:hi]


def _true_columns(mask: np.ndarray) -> List[List[int]]:
    """Per row of a 2-D mask, its ``True`` columns as a list of ints."""
    rows, columns = np.nonzero(mask)
    bounds = np.searchsorted(rows, np.arange(mask.shape[0] + 1)).tolist()
    columns = columns.tolist()
    return [columns[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class ReceivedUnits(abc.Sequence):
    """Consensus and column assembly of ``U`` units, pre-correction.

    A sequence of :class:`ReceivedUnit` views, each built when indexed.

    Attributes:
        matrices: ``(U, payload_rows, n_columns)`` received symbols.
        erased: ``(U, n_columns)`` bool, columns no valid strand claimed.
        invalid: ``(U,)`` strands dropped for a bad index or length.
        duplicates: ``(D, 2)`` int64 ``(unit, column)`` of every claim on
            an already claimed column, in claim order (a column can repeat).
        cells: ``(C, 3)`` int64 ``(unit, row, column)`` low-confidence
            cells, in claim order.

    ``duplicates`` and ``cells`` are ordered pair tables, not masks: the
    per-unit view lists them in the order the clusters claimed them.
    """

    __slots__ = ("matrices", "erased", "invalid", "duplicates", "cells")

    def __init__(self, matrices: np.ndarray, erased: np.ndarray,
                 invalid: np.ndarray, duplicates: np.ndarray,
                 cells: np.ndarray) -> None:
        self.matrices = matrices
        self.erased = erased
        self.invalid = invalid
        self.duplicates = duplicates
        self.cells = cells

    @classmethod
    def pack(
        cls,
        units: Union["ReceivedUnits", Sequence[ReceivedUnit]],
        shape: Tuple[int, int],
    ) -> "ReceivedUnits":
        """The columnar form of a :class:`ReceivedUnit` list.

        ``shape`` is one matrix's ``(payload_rows, n_columns)``. An erased
        column outside ``[0, n_columns)`` is a ``ValueError``. A
        :class:`ReceivedUnits` comes back as it is.
        """
        if isinstance(units, ReceivedUnits):
            return units
        units = list(units)
        n_columns = shape[1]
        erased = np.zeros((len(units), n_columns), dtype=bool)
        for u, unit in enumerate(units):
            columns = [int(c) for c in unit.erased_columns]
            for column in columns:
                if not 0 <= column < n_columns:
                    raise ValueError(f"erasure column {column} out of range")
            erased[u, columns] = True
        return cls(
            matrices=(np.stack([unit.matrix for unit in units]) if units
                      else np.zeros((0,) + tuple(shape), dtype=np.int64)),
            erased=erased,
            invalid=np.array([unit.invalid_strands for unit in units],
                             dtype=np.int64),
            duplicates=np.array(
                [(u, c) for u, unit in enumerate(units)
                 for c in unit.duplicate_columns], dtype=np.int64,
            ).reshape(-1, 2),
            cells=np.array(
                [(u, r, c) for u, unit in enumerate(units)
                 for r, c in unit.cell_erasures], dtype=np.int64,
            ).reshape(-1, 3),
        )

    @classmethod
    def concat(cls, parts: Sequence["ReceivedUnits"]) -> "ReceivedUnits":
        """Units of several outcomes back to back, in order."""
        offsets = np.cumsum([0] + [len(part) for part in parts])
        return cls(
            matrices=np.concatenate([part.matrices for part in parts]),
            erased=np.concatenate([part.erased for part in parts]),
            invalid=np.concatenate([part.invalid for part in parts]),
            duplicates=np.concatenate([
                part.duplicates + (offset, 0)
                for part, offset in zip(parts, offsets)
            ]),
            cells=np.concatenate([
                part.cells + (offset, 0, 0)
                for part, offset in zip(parts, offsets)
            ]),
        )

    def __len__(self) -> int:
        return self.matrices.shape[0]

    def __getitem__(self, index) -> ReceivedUnit:
        u = _unit(index, len(self))
        cells = _rows_of(self.cells, u)[:, 1:].tolist()
        return ReceivedUnit(
            matrix=self.matrices[u],
            erased_columns=np.flatnonzero(self.erased[u]).tolist(),
            duplicate_columns=_rows_of(self.duplicates, u)[:, 1].tolist(),
            invalid_strands=int(self.invalid[u]),
            cell_erasures=[tuple(cell) for cell in cells],
        )


class UnitReports(abc.Sequence):
    """RS verdicts of ``U`` units, per codeword.

    A sequence of :class:`DecodeReport` views, built when indexed or
    iterated; a slice is the :class:`UnitReports` of those units.

    Attributes:
        erased: ``(U, n_columns)`` bool, the columns treated as erased
            (lost ones and any extra erasure columns).
        ok: ``(U, n_codewords)`` bool, codeword decoded.
        corrected: ``(U, n_codewords)`` symbols fixed per codeword, 0
            where the codeword failed.
    """

    __slots__ = ("erased", "ok", "corrected")

    def __init__(self, erased: np.ndarray, ok: np.ndarray,
                 corrected: np.ndarray) -> None:
        self.erased = erased
        self.ok = ok
        self.corrected = corrected

    def __len__(self) -> int:
        return self.ok.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return UnitReports(self.erased[index], self.ok[index],
                               self.corrected[index])
        u = _unit(index, len(self))
        [report] = self[u:u + 1]
        return report

    def __iter__(self):
        return map(DecodeReport, _true_columns(self.erased),
                   _true_columns(~self.ok),
                   self.corrected.sum(axis=1).tolist())


class CorrectedUnits(abc.Sequence):
    """:meth:`~repro.core.pipeline.DnaStoragePipeline.correct_matrix_many`'s
    outcome: a sequence of ``(corrected_matrix, DecodeReport)`` pairs.

    Attributes:
        matrices: ``(U, payload_rows, n_columns)`` corrected symbols
            (failed codewords keep their received symbols).
        reports: the units' :class:`UnitReports`.
    """

    __slots__ = ("matrices", "reports")

    def __init__(self, matrices: np.ndarray, reports: UnitReports) -> None:
        self.matrices = matrices
        self.reports = reports

    def __len__(self) -> int:
        return self.matrices.shape[0]

    def __getitem__(self, index) -> Tuple[np.ndarray, DecodeReport]:
        u = _unit(index, len(self))
        return self.matrices[u], self.reports[u]

    def __iter__(self):
        return zip(self.matrices, self.reports)


def unrank(
    prioritized: np.ndarray, n_data_bits: int,
    ranking: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The first ``n_data_bits`` of ``prioritized`` put back in caller
    order by inverting ``ranking`` (a copy either way)."""
    if ranking is None:
        return prioritized[:n_data_bits].copy()
    bits = np.zeros(n_data_bits, dtype=np.uint8)
    bits[ranking] = prioritized[:n_data_bits]
    return bits


class DecodedUnits(abc.Sequence):
    """:meth:`~repro.core.pipeline.DnaStoragePipeline.correct_many`'s
    outcome: a sequence of ``(bits, DecodeReport)`` pairs.

    Attributes:
        prioritized: ``(U, capacity_bits)`` uint8, every unit's decoded
            data bits in placement (priority) order.
        sizes: ``(U,)`` payload bits of each unit.
        ranking: the priority permutation each unit's bits were ranked
            with, or ``None``.
        reports: the units' :class:`UnitReports`.
    """

    __slots__ = ("prioritized", "sizes", "ranking", "reports")

    def __init__(self, prioritized: np.ndarray, sizes: np.ndarray,
                 ranking: Optional[np.ndarray],
                 reports: UnitReports) -> None:
        self.prioritized = prioritized
        self.sizes = sizes
        self.ranking = ranking
        self.reports = reports

    def __len__(self) -> int:
        return self.prioritized.shape[0]

    def _payloads(self, lo: int, hi: int) -> List[np.ndarray]:
        """Units ``lo..hi - 1``'s payload bits, un-ranked: rows of one
        fresh array."""
        if self.ranking is None:
            rows = self.prioritized[lo:hi].copy()
            return [row[:size]
                    for row, size in zip(rows, self.sizes[lo:hi].tolist())]
        bits = np.zeros((hi - lo, self.ranking.size), dtype=np.uint8)
        bits[:, self.ranking] = self.prioritized[lo:hi, :self.ranking.size]
        return list(bits)

    def __getitem__(self, index) -> Tuple[np.ndarray, DecodeReport]:
        u = _unit(index, len(self))
        [bits] = self._payloads(u, u + 1)
        return bits, self.reports[u]

    def __iter__(self):
        return zip(self._payloads(0, len(self)), self.reports)
