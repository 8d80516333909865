"""Encoding-matrix geometry and the three layout policies.

The encoding unit (the paper's Figure 1) is a matrix of m-bit symbols:
every *column* is synthesized into one DNA molecule, every *codeword*
spans all ``n_columns`` columns and carries ``nsym`` parity symbols. The
first ``M = n_columns - nsym`` columns hold data, the rest redundancy.
Each molecule additionally carries an unprotected ordering index of
exactly one symbol (the paper's Section 2.2: the index must be
``log2(M+E)`` bits, which equals the symbol size).

A :class:`LayoutPolicy` fixes two independent aspects:

* **codeword geometry** — which matrix cells form codeword ``k``
  (baseline/DnaMapper: row ``k``; Gini: the wrapped diagonal);
* **placement order** — the sequence of data cells filled by the
  priority-ordered data stream (baseline/Gini: column-major, i.e. molecule
  by molecule; DnaMapper: the reliability zig-zag across rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

Cell = Tuple[int, int]  # (row, column) within the payload matrix


@dataclass(frozen=True)
class MatrixConfig:
    """Geometry of one encoding unit.

    Attributes:
        m: Reed-Solomon symbol size in bits (also the index width).
        n_columns: number of molecules, ``M + E`` (at most ``2^m - 1``).
        nsym: redundancy symbols per codeword, ``E``.
        payload_rows: symbols per molecule payload, ``S`` (matrix rows).
    """

    m: int = 8
    n_columns: int = 255
    nsym: int = 47
    payload_rows: int = 30

    def __post_init__(self) -> None:
        if self.m % 2 != 0:
            raise ValueError(f"symbol size must be even (whole bases), got {self.m}")
        if self.n_columns > (1 << self.m) - 1:
            raise ValueError(
                f"n_columns {self.n_columns} exceeds codeword length "
                f"{(1 << self.m) - 1} for m={self.m}"
            )
        if not (0 <= self.nsym < self.n_columns):
            raise ValueError(f"nsym must be in [0, {self.n_columns})")
        if self.n_columns > (1 << self.m):
            raise ValueError("index symbol cannot address all molecules")
        if self.payload_rows < 1:
            raise ValueError("payload_rows must be >= 1")

    @property
    def data_columns(self) -> int:
        """M — molecules holding data symbols."""
        return self.n_columns - self.nsym

    @property
    def index_bases(self) -> int:
        """Bases reserved for the ordering index (one symbol)."""
        return self.m // 2

    @property
    def payload_bases(self) -> int:
        """Bases per molecule holding matrix symbols."""
        return self.payload_rows * (self.m // 2)

    @property
    def strand_length(self) -> int:
        """Total bases per molecule (index + payload, without primers)."""
        return self.index_bases + self.payload_bases

    @property
    def data_symbols(self) -> int:
        """Data symbols per encoding unit."""
        return self.payload_rows * self.data_columns

    @property
    def data_bits(self) -> int:
        """Data bit capacity per encoding unit."""
        return self.data_symbols * self.m


class LayoutPolicy:
    """Codeword geometry + data placement order over a matrix config."""

    def __init__(self, config: MatrixConfig) -> None:
        self.config = config

    @property
    def n_codewords(self) -> int:
        return self.config.payload_rows

    def codeword_cells(self, k: int) -> List[Cell]:
        """Cells of codeword ``k`` in symbol order (data first, then parity).

        Position ``j`` of the codeword lives in column ``j``; data symbols
        occupy ``j < M`` and parity ``j >= M``, for every policy.
        """
        raise NotImplementedError

    def placement_order(self) -> Iterator[Cell]:
        """Data cells (columns ``< M`` only) in data-stream order.

        For priority-aware layouts, earlier cells are the more reliable
        locations; for the baseline, it is plain column-major order.
        """
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------------

    def _column_major(self) -> Iterator[Cell]:
        for column in range(self.config.data_columns):
            for row in range(self.config.payload_rows):
                yield (row, column)


class BaselineLayout(LayoutPolicy):
    """The state-of-the-art architecture of the paper's Figure 1.

    Row codewords, column-major data placement (chunk ``i`` of the input
    fills molecule ``i`` top to bottom).
    """

    def codeword_cells(self, k: int) -> List[Cell]:
        if not (0 <= k < self.n_codewords):
            raise ValueError(f"codeword index {k} out of range")
        return [(k, column) for column in range(self.config.n_columns)]

    def placement_order(self) -> Iterator[Cell]:
        return self._column_major()


class GiniLayout(LayoutPolicy):
    """Gini's diagonal codeword interleaving (the paper's Figure 8).

    Codeword ``k``'s symbol at position ``j`` lives in cell
    ``((k + j) mod S', j)`` — the diagonal wraps around the row dimension
    and, because there are far more columns than rows, cycles through all
    row positions many times. Every column still contributes exactly one
    symbol per codeword, so erasure protection matches the baseline while
    positional error is spread evenly over all codewords.

    ``excluded_rows`` (Figure 8b) keeps selected rows as plain row
    codewords — separate reliability classes — and interleaves only the
    remaining rows.
    """

    def __init__(
        self, config: MatrixConfig, excluded_rows: Sequence[int] = ()
    ) -> None:
        super().__init__(config)
        self.excluded_rows = tuple(sorted(set(int(r) for r in excluded_rows)))
        for row in self.excluded_rows:
            if not (0 <= row < config.payload_rows):
                raise ValueError(f"excluded row {row} out of range")
        self._interleaved_rows = [
            row for row in range(config.payload_rows)
            if row not in self.excluded_rows
        ]
        if not self._interleaved_rows:
            raise ValueError("Gini needs at least one non-excluded row")
        # Codeword ids: excluded rows keep their row index; the interleaved
        # group's diagonals take the remaining ids in row order.
        self._diagonal_ids = {
            row: t for t, row in enumerate(self._interleaved_rows)
        }

    def codeword_cells(self, k: int) -> List[Cell]:
        if not (0 <= k < self.n_codewords):
            raise ValueError(f"codeword index {k} out of range")
        if k in self.excluded_rows:
            return [(k, column) for column in range(self.config.n_columns)]
        # k is an interleaved row: its diagonal id decides the offset.
        t = self._diagonal_ids[k]
        rows = self._interleaved_rows
        s = len(rows)
        return [
            (rows[(t + column) % s], column)
            for column in range(self.config.n_columns)
        ]

    def placement_order(self) -> Iterator[Cell]:
        return self._column_major()


class DnaMapperLayout(LayoutPolicy):
    """DnaMapper's priority zig-zag placement (the paper's Figure 9).

    Codewords are plain rows (parity is computed after placement, per
    row), but data is placed by reliability: the highest-priority bits go
    to the last row (the molecule end, adjacent in reliability to the
    index at the start), the next to the first payload row, then the
    second-to-last, and so on zig-zagging towards the unreliable middle.
    Within one row, consecutive symbols stripe across the data columns.
    """

    def codeword_cells(self, k: int) -> List[Cell]:
        if not (0 <= k < self.n_codewords):
            raise ValueError(f"codeword index {k} out of range")
        return [(k, column) for column in range(self.config.n_columns)]

    def placement_order(self) -> Iterator[Cell]:
        for row in self.row_priority_order():
            for column in range(self.config.data_columns):
                yield (row, column)

    def row_priority_order(self) -> List[int]:
        """Payload rows from most to least reliable.

        The index occupies the very start of the molecule, so the nearest
        payload position to a molecule end is the *last* row; then the
        first payload row (one base group in from the index), then the
        second-to-last, alternating inward.
        """
        s = self.config.payload_rows
        order = []
        front, back = 0, s - 1
        take_back = True
        while front <= back:
            if take_back:
                order.append(back)
                back -= 1
            else:
                order.append(front)
                front += 1
            take_back = not take_back
        return order


class RandomInterleavedLayout(LayoutPolicy):
    """A strawman interleaver: codeword cells drawn by random permutation.

    Included as an ablation target, *not* as a recommended layout. A
    random interleaver spreads positional errors as evenly as Gini, but
    it breaks the erasure guarantee Gini preserves: with random cell
    assignment a codeword may own *several* symbols in one column, so a
    single lost molecule can consume multiple erasure-correction units of
    the same codeword. Gini's "continue from the next column when
    wrapping" rule (the paper's Figure 8a) exists precisely to avoid
    this. The per-column permutations here are seeded deterministically
    so encode and decode agree.
    """

    def __init__(self, config: MatrixConfig, seed: int = 0) -> None:
        super().__init__(config)
        generator = np.random.default_rng(seed)
        rows = config.payload_rows
        # Deal data cells and parity cells separately so every codeword
        # still owns exactly M data symbols and E parity symbols; only the
        # *columns* those symbols sit in are randomized.
        data_cells = [(r, c) for c in range(config.data_columns)
                      for r in range(rows)]
        parity_cells = [(r, c)
                        for c in range(config.data_columns, config.n_columns)
                        for r in range(rows)]
        self._cells_of = [[] for _ in range(rows)]
        for pool in (data_cells, parity_cells):
            order = generator.permutation(len(pool))
            for slot, cell_index in enumerate(order):
                self._cells_of[slot % rows].append(pool[int(cell_index)])

    def codeword_cells(self, k: int) -> List[Cell]:
        if not (0 <= k < self.n_codewords):
            raise ValueError(f"codeword index {k} out of range")
        return list(self._cells_of[k])

    def placement_order(self) -> Iterator[Cell]:
        return self._column_major()


def build_layout(
    name: str, config: MatrixConfig, gini_excluded_rows: Sequence[int] = ()
) -> LayoutPolicy:
    """Factory: 'baseline', 'gini', 'dnamapper', or 'random' (ablation)."""
    if name == "baseline":
        return BaselineLayout(config)
    if name == "gini":
        return GiniLayout(config, excluded_rows=gini_excluded_rows)
    if name == "dnamapper":
        return DnaMapperLayout(config)
    if name == "random":
        return RandomInterleavedLayout(config)
    raise ValueError(f"unknown layout {name!r}")
