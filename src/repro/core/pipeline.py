"""The end-to-end DNA storage pipeline (the paper's Section 6 methodology).

Encoding: data bits -> priority permutation -> matrix placement -> per-
codeword Reed-Solomon parity -> per-column DNA strands (index + payload).

Decoding: read clusters -> consensus (two-way by default) -> index parse
and column assembly -> per-codeword RS error/erasure correction ->
inverse placement -> inverse permutation -> data bits.

The pipeline is deliberately split into ``receive`` (clusters to a raw
symbol matrix) and ``correct`` (matrix to bits) so analyses like the
paper's Figure 11 can observe the *pre-correction* error distribution per
codeword.

Each stage has one implementation, batched over units:
:meth:`~DnaStoragePipeline.encode_many`,
:meth:`~DnaStoragePipeline.receive_many` and
:meth:`~DnaStoragePipeline.correct_many`. The single-unit calls
(``encode``, ``receive``, ``correct``, ``decode``) are their one-element
case. The frozen per-unit loops they replaced are test oracles
(``tests/oracles/core.py``) that pin them byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.channel.readbatch import ReadBatch
from repro.channel.sequencer import ReadCluster
from repro.codec.basemap import BASES
from repro.consensus.base import Reconstructor, consensus_span
from repro.consensus.two_way import TwoWayReconstructor
from repro.core.layout import LayoutPolicy, MatrixConfig, build_layout
from repro.ecc.batched import reason_counts
from repro.ecc.reed_solomon import ReedSolomon
from repro.observability.trace import get_tracer

#: Row ``b`` spells byte ``b`` as four ASCII bases, high bit pair first
#: (00=A, 01=C, 10=G, 11=T). Each row is read as one 4-byte word, so a
#: strand render gathers whole rows, not single bases.
_BYTE_BASES = np.frombuffer(BASES.encode("ascii"), dtype=np.uint8)[
    (np.arange(256)[:, None] >> np.array([6, 4, 2, 0])) & 3
].view(np.uint32)[:, 0]


@dataclass(frozen=True)
class PipelineConfig:
    """Full configuration of one storage pipeline.

    Attributes:
        matrix: encoding-unit geometry.
        layout: 'baseline', 'gini', or 'dnamapper'.
        gini_excluded_rows: rows kept as separate reliability classes when
            ``layout == 'gini'`` (the paper's Figure 8b).
    """

    matrix: MatrixConfig = field(default_factory=MatrixConfig)
    layout: str = "baseline"
    gini_excluded_rows: Tuple[int, ...] = ()


@dataclass
class EncodedUnit:
    """One synthesized encoding unit.

    Attributes:
        strands: one DNA string per molecule (index + payload bases).
        matrix: the ground-truth symbol matrix (payload_rows x n_columns),
            kept for analysis (error accounting in simulations).
        n_data_bits: number of caller bits stored (before padding).
    """

    strands: List[str]
    matrix: np.ndarray
    n_data_bits: int


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


def _stack_rows(rows, length: int, dtype) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cluster consensus rows -> ``(stack, well_formed)``.

    ``stack`` is ``(len(rows), length)``. A row of any other length (a
    truncated or overlong estimate) leaves zeros in the stack and
    ``False`` in ``well_formed``, so one malformed estimate cannot break
    the whole batch.
    """
    if isinstance(rows, np.ndarray) and rows.ndim == 2 \
            and rows.shape[1] == length:
        return (rows.astype(dtype, copy=False),
                np.ones(rows.shape[0], dtype=bool))
    well_formed = np.array([np.shape(row) == (length,) for row in rows],
                           dtype=bool)
    stack = np.zeros((len(rows), length), dtype=dtype)
    if well_formed.any():
        stack[well_formed] = np.stack(
            [rows[i] for i in np.flatnonzero(well_formed)]
        )
    return stack, well_formed


class DnaStoragePipeline:
    """Encode/decode encoding units under a configurable layout policy."""

    def __init__(
        self,
        config: PipelineConfig = PipelineConfig(),
        reconstructor: Optional[Reconstructor] = None,
    ) -> None:
        self.config = config
        self.matrix_config = config.matrix
        self.layout: LayoutPolicy = build_layout(
            config.layout, config.matrix, config.gini_excluded_rows
        )
        self.reconstructor = reconstructor or TwoWayReconstructor()
        self._rs = (
            ReedSolomon(
                config.matrix.m,
                nsym=config.matrix.nsym,
                n=config.matrix.n_columns,
            )
            if config.matrix.nsym > 0
            else None
        )
        placement_order = list(self.layout.placement_order())
        if len(placement_order) != config.matrix.data_symbols:
            raise AssertionError("placement order does not cover the data cells")
        # Index-array form of the placement order and the codeword
        # geometry: one fancy-indexing gather/scatter replaces every
        # per-cell Python loop on both the encode and the correct path.
        placement = np.array(placement_order, dtype=np.int64).reshape(-1, 2)
        self._placement_rows = placement[:, 0]
        self._placement_cols = placement[:, 1]
        cells = np.array(
            [self.layout.codeword_cells(k)
             for k in range(self.layout.n_codewords)],
            dtype=np.int64,
        )  # (n_codewords, n_columns, 2)
        self._codeword_rows = cells[:, :, 0]
        self._codeword_cols = cells[:, :, 1]

    # -- encoding -------------------------------------------------------------

    @property
    def capacity_bits(self) -> int:
        """Data bits one unit can hold."""
        return self.matrix_config.data_bits

    def encode(
        self, bits: np.ndarray, ranking: Optional[np.ndarray] = None
    ) -> EncodedUnit:
        """Encode a bit array (at most ``capacity_bits``) into strands.

        The one-unit case of :meth:`encode_many`, after applying
        ``ranking``.

        Args:
            bits: 0/1 array of payload bits.
            ranking: priority permutation over ``len(bits)`` (see
                :mod:`repro.core.ranking`); identity when omitted. Padding
                bits (capacity beyond ``len(bits)``) always rank last.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        if ranking is not None:
            ranking = np.asarray(ranking, dtype=np.int64)
            if ranking.shape != (bits.size,):
                raise ValueError(
                    "ranking must be a permutation of the bit indices"
                )
            bits = bits[ranking]
        return self.encode_many([bits])[0]

    def encode_many(self, stripes: Sequence[np.ndarray]) -> List[EncodedUnit]:
        """Encode several units' payloads in one batched pass.

        ``stripes[u]`` is unit ``u``'s bit array (each at most
        ``capacity_bits``; identity ranking — multi-unit priority is
        handled globally by :class:`~repro.core.store.DnaStore` before
        striping). All units' placement scatters, parity codewords (one
        :meth:`~repro.ecc.reed_solomon.ReedSolomon.parity_many` matrix
        product) and strand renderings (one byte-table pass) run as
        single array operations over a ``(n_units, ...)`` stack; output
        is byte-identical to the frozen per-cell loop encoder
        (``tests/oracles/core.py``).
        """
        sizes = []
        prioritized = np.zeros((len(stripes), self.capacity_bits),
                               dtype=np.uint8)
        for u, bits in enumerate(stripes):
            bits = np.asarray(bits, dtype=np.uint8)
            if bits.ndim != 1:
                raise ValueError("bits must be a 1-D array")
            if bits.size > self.capacity_bits:
                raise ValueError(
                    f"{bits.size} bits exceed unit capacity "
                    f"{self.capacity_bits}"
                )
            prioritized[u, : bits.size] = bits
            sizes.append(bits.size)
        matrices = self._assemble_matrices(prioritized)
        strands = self._render_strands(matrices)
        return [
            EncodedUnit(strands=strands[u], matrix=matrices[u],
                        n_data_bits=sizes[u])
            for u in range(len(stripes))
        ]

    def _assemble_matrices(self, prioritized: np.ndarray) -> np.ndarray:
        """Prioritized bit stacks -> fully parity-filled symbol matrices.

        ``prioritized`` is ``(n_units, capacity_bits)``; the result is
        ``(n_units, payload_rows, n_columns)``. Data symbols land through
        one placement-index scatter; every unit's every codeword gets its
        parity from a single :meth:`ReedSolomon.parity_many` call.
        """
        config = self.matrix_config
        n_units = prioritized.shape[0]
        symbols = self._bits_to_symbols(prioritized)  # (n_units, data_symbols)
        matrices = np.zeros(
            (n_units, config.payload_rows, config.n_columns), dtype=np.int64
        )
        matrices[:, self._placement_rows, self._placement_cols] = symbols
        if self._rs is not None:
            data_columns = config.data_columns
            messages = matrices[
                :, self._codeword_rows[:, :data_columns],
                self._codeword_cols[:, :data_columns],
            ]  # (n_units, n_codewords, data_columns)
            parity = self._rs.parity_many(
                messages.reshape(-1, data_columns)
            ).reshape(n_units, self.layout.n_codewords, config.nsym)
            matrices[
                :, self._codeword_rows[:, data_columns:],
                self._codeword_cols[:, data_columns:],
            ] = parity
        return matrices

    def _render_strands(self, matrices: np.ndarray) -> List[List[str]]:
        """All columns of all units -> strands, one byte-table pass.

        Each strand is its column index symbol followed by the column's
        payload symbols, MSB-first at two bits per base (00=A, 01=C,
        10=G, 11=T). Every symbol's big-endian bytes (one for ``m <= 8``,
        two for ``m <= 16``) look up their four ASCII bases each in
        ``_BYTE_BASES``; the leading ``4 * bytes - m / 2`` bases of a
        symbol spell its zero high bits and are dropped, and the buffer
        is decoded once. The only per-strand Python work left is slicing
        each ACGT string out of that buffer.
        """
        config = self.matrix_config
        n_units = matrices.shape[0]
        n_columns = config.n_columns
        index_row = np.broadcast_to(
            np.arange(n_columns, dtype=np.int64), (n_units, 1, n_columns)
        )
        values = np.concatenate([index_row, matrices], axis=1)
        values = values.transpose(0, 2, 1)  # (n_units, n_columns, symbols)
        n_bytes = 1 if config.m <= 8 else 2
        octets = np.ascontiguousarray(
            values, dtype=np.uint8 if n_bytes == 1 else ">u2"
        ).view(np.uint8)
        bases = _BYTE_BASES[octets].view(np.uint8).reshape(
            n_units, n_columns, values.shape[2], 4 * n_bytes
        )[..., 4 * n_bytes - config.m // 2:]
        big = bases.tobytes().decode("ascii")
        length = config.strand_length
        return [
            [big[(u * n_columns + c) * length:
                 (u * n_columns + c + 1) * length]
             for c in range(n_columns)]
            for u in range(n_units)
        ]

    # -- decoding -------------------------------------------------------------

    def receive(
        self,
        clusters: Union[Sequence[ReadCluster], ReadBatch],
        confidence_threshold: Optional[float] = None,
    ) -> ReceivedUnit:
        """Consensus + column assembly for one unit; no error correction.

        The one-unit case of :meth:`receive_many`. A plain cluster list
        is packed into a columnar
        :class:`~repro.channel.readbatch.ReadBatch` first (index arrays
        only — no base string is materialized).

        Args:
            clusters: read clusters (one per molecule, any order), or one
                :class:`~repro.channel.readbatch.ReadBatch` covering the
                unit.
            confidence_threshold: when set *and* the reconstructor exposes
                ``reconstruct_batch_with_confidence`` (see
                :class:`repro.consensus.posterior.PosteriorReconstructor`),
                payload symbols whose bases fall below this posterior
                confidence are flagged as *cell erasures*. RS treats
                erasures at half the cost of errors, so flagging the
                consensus's own uncertain symbols buys correction margin
                — an extension of the paper's design enabled by soft
                consensus output.
        """
        batch = (clusters if isinstance(clusters, ReadBatch)
                 else ReadBatch.from_clusters(clusters))
        return self.receive_many(
            batch, [0, batch.n_clusters], confidence_threshold
        )[0]

    def receive_many(
        self,
        batch: ReadBatch,
        unit_boundaries: Optional[np.ndarray] = None,
        confidence_threshold: Optional[float] = None,
    ) -> List[ReceivedUnit]:
        """Consensus + column assembly for *several units* in one pass.

        ``batch`` spans every cluster of every unit (units back to back,
        see :meth:`~repro.channel.readbatch.ReadBatch.concat`), the
        reconstructor's batch entry point runs **once** over all
        surviving clusters, and the index parsing happens as array
        operations over the whole estimate stack — base-4 symbol
        grouping, index validation, first-claim-wins column assembly and
        confidence-cell extraction, all segmented by unit. Per-unit
        output is byte-identical to the frozen per-estimate parse loop
        (``tests/oracles/core.py``).

        Args:
            batch: one spanning :class:`ReadBatch`; cluster slots
                ``[unit_boundaries[u], unit_boundaries[u + 1])`` belong to
                unit ``u``. Lost clusters (zero reads) are dropped before
                consensus — their degenerate estimates would otherwise
                claim column 0.
            unit_boundaries: ``(n_units + 1,)`` non-decreasing cluster
                boundary table starting at 0 and ending at
                ``batch.n_clusters``. When omitted, the batch must hold a
                whole number of ``n_columns``-cluster units.
            confidence_threshold: as in :meth:`receive`, applied to every
                unit.
        """
        tracer = get_tracer()
        with tracer.span(
            "pipeline.receive_many", n_clusters=batch.n_clusters
        ) as span:
            received = self._receive_many_impl(
                batch, unit_boundaries, confidence_threshold
            )
            if tracer.is_recording:
                span.set(n_units=len(received))
                metrics = tracer.metrics
                metrics.counter("receive.clusters_in").add(
                    int(batch.n_clusters)
                )
                metrics.counter("receive.units_out").add(len(received))
                metrics.counter("receive.invalid_strands").add(
                    sum(unit.invalid_strands for unit in received)
                )
                metrics.counter("receive.duplicate_strands").add(
                    sum(len(unit.duplicate_columns) for unit in received)
                )
                metrics.counter("receive.erased_columns").add(
                    sum(len(unit.erased_columns) for unit in received)
                )
                metrics.counter("receive.cell_erasures").add(
                    sum(len(unit.cell_erasures) for unit in received)
                )
        return received

    def _receive_many_impl(
        self,
        batch: ReadBatch,
        unit_boundaries: Optional[np.ndarray],
        confidence_threshold: Optional[float],
    ) -> List[ReceivedUnit]:
        config = self.matrix_config
        if unit_boundaries is None:
            n_units, remainder = divmod(batch.n_clusters, config.n_columns)
            if remainder or n_units == 0:
                raise ValueError(
                    f"batch holds {batch.n_clusters} clusters, not a "
                    f"whole number of {config.n_columns}-cluster units"
                )
            unit_boundaries = np.arange(n_units + 1, dtype=np.int64) \
                * config.n_columns
        boundaries = np.asarray(unit_boundaries, dtype=np.int64)
        if (boundaries.ndim != 1 or boundaries.size < 2
                or boundaries[0] != 0
                or boundaries[-1] != batch.n_clusters
                or np.any(np.diff(boundaries) < 0)):
            raise ValueError(
                "unit_boundaries must be a non-decreasing table from 0 to "
                f"batch.n_clusters ({batch.n_clusters})"
            )
        n_units = boundaries.size - 1
        # Unit of every *live* cluster, derived from the slot positions
        # before the lost clusters are compacted away (drop_lost keeps
        # cluster order, so estimate i belongs to the i-th live slot).
        live_slots = np.flatnonzero(batch.coverage_counts() > 0)
        unit_of_estimate = np.searchsorted(
            boundaries, live_slots, side="right"
        ) - 1
        live = batch.drop_lost()
        length = config.strand_length
        use_confidence = (
            confidence_threshold is not None
            and hasattr(self.reconstructor,
                        "reconstruct_batch_with_confidence")
        )
        confidences: Optional[np.ndarray] = None
        with consensus_span(live):
            if use_confidence:
                results = \
                    self.reconstructor.reconstruct_batch_with_confidence(
                        live, length
                    )
                estimates, well_formed = _stack_rows(
                    [e for e, _ in results], length, np.int64
                )
                confidences, confident = _stack_rows(
                    [c for _, c in results], length, np.float64
                )
                well_formed &= confident
            else:
                estimates, well_formed = _stack_rows(
                    self.reconstructor.reconstruct_batch(live, length),
                    length, np.int64,
                )

        # Group bases into base-4 big-endian symbols over the whole
        # stack and split off the index. A malformed estimate counts as
        # an invalid strand, exactly like an out-of-range index.
        bases_per_symbol = config.m // 2
        weights = 4 ** np.arange(bases_per_symbol - 1, -1, -1, dtype=np.int64)
        values = estimates.reshape(
            estimates.shape[0], length // bases_per_symbol, bases_per_symbol
        ) @ weights
        columns = values[:, 0]
        symbols = values[:, 1:]
        valid = well_formed & (columns < config.n_columns)
        invalid_counts = np.bincount(
            unit_of_estimate[~valid], minlength=n_units
        )
        # First-claim-wins, segmented by unit: the first *valid* estimate
        # claiming a (unit, column) key wins (estimates are in cluster
        # order, matching the oracle loop); later claims are duplicates.
        valid_rows = np.flatnonzero(valid)
        keys = (unit_of_estimate[valid_rows] * config.n_columns
                + columns[valid_rows])
        _, first_of_key = np.unique(keys, return_index=True)
        winner_mask = np.zeros(valid_rows.size, dtype=bool)
        winner_mask[first_of_key] = True
        winners = valid_rows[winner_mask]
        duplicate_rows = valid_rows[~winner_mask]

        matrices = np.zeros(
            (n_units, config.payload_rows, config.n_columns), dtype=np.int64
        )
        matrices[unit_of_estimate[winners], :, columns[winners]] = \
            symbols[winners]
        filled = np.zeros((n_units, config.n_columns), dtype=bool)
        filled[unit_of_estimate[winners], columns[winners]] = True

        # Confidence cells of every winning estimate at once: payload rows
        # whose minimum per-base posterior mass falls under the threshold.
        if confidences is not None and winners.size:
            payload = confidences[winners][:, config.index_bases:]
            per_row = payload[
                :, : config.payload_rows * bases_per_symbol
            ].reshape(winners.size, config.payload_rows, bases_per_symbol)
            low_winner, low_row = np.nonzero(
                per_row.min(axis=2) < confidence_threshold
            )
        else:
            low_winner = low_row = np.zeros(0, dtype=np.int64)
        cell_units = unit_of_estimate[winners[low_winner]]
        cell_columns = columns[winners[low_winner]]
        duplicate_units = unit_of_estimate[duplicate_rows]

        received = []
        for u in range(n_units):
            dup_lo, dup_hi = np.searchsorted(duplicate_units, [u, u + 1])
            cell_lo, cell_hi = np.searchsorted(cell_units, [u, u + 1])
            received.append(ReceivedUnit(
                matrix=matrices[u],
                erased_columns=[int(c) for c in np.flatnonzero(~filled[u])],
                duplicate_columns=[
                    int(c) for c in columns[duplicate_rows[dup_lo:dup_hi]]
                ],
                invalid_strands=int(invalid_counts[u]),
                cell_erasures=[
                    (int(r), int(c))
                    for r, c in zip(low_row[cell_lo:cell_hi],
                                    cell_columns[cell_lo:cell_hi])
                ],
            ))
        return received

    def decode_many(
        self,
        batch: ReadBatch,
        n_data_bits,
        unit_boundaries: Optional[np.ndarray] = None,
        ranking: Optional[np.ndarray] = None,
        extra_erasure_columns: Sequence[int] = (),
        confidence_threshold: Optional[float] = None,
    ) -> List[Tuple[np.ndarray, DecodeReport]]:
        """Decode several units from one spanning batch.

        One :meth:`receive_many` pass (a single consensus batch call over
        every unit's clusters) feeding one :meth:`correct_many` pass (a
        single batched errata decode over every unit's dirty codewords).
        ``n_data_bits`` is a scalar applied to every unit or one value per
        unit; ``ranking``/``extra_erasure_columns`` apply per unit,
        ``confidence_threshold`` to the whole receive pass (as in
        :meth:`receive`). Returns one ``(bits, DecodeReport)`` pair per
        unit.
        """
        with get_tracer().span("pipeline.decode_many"):
            received = self.receive_many(
                batch, unit_boundaries,
                confidence_threshold=confidence_threshold,
            )
            if np.ndim(n_data_bits) == 0:
                sizes = [int(n_data_bits)] * len(received)
            else:
                sizes = [int(size) for size in n_data_bits]
            return self.correct_many(
                received, sizes, ranking, extra_erasure_columns
            )

    def correct_matrix(
        self,
        received: ReceivedUnit,
        extra_erasure_columns: Sequence[int] = (),
    ) -> Tuple[np.ndarray, DecodeReport]:
        """RS-correct a received matrix; no bit extraction yet.

        The one-unit case of :meth:`correct_matrix_many`.

        Args:
            received: output of :meth:`receive`.
            extra_erasure_columns: columns to treat as erased on top of the
                genuinely missing ones — the knob the paper uses to model
                *effective redundancy* reduction (its Figure 13).

        Returns:
            The corrected matrix (failed codewords keep their received
            symbols) and the decode report.
        """
        return self.correct_matrix_many([received], extra_erasure_columns)[0]

    def correct_matrix_many(
        self,
        received_units: Sequence[ReceivedUnit],
        extra_erasure_columns: Sequence[int] = (),
    ) -> List[Tuple[np.ndarray, DecodeReport]]:
        """RS-correct every unit's matrix through one batched errata pass.

        The store-plane correction boundary: every codeword of every unit
        is gathered into one ``(U * K, n)`` word stack and decoded in two
        batched waves of :meth:`~repro.ecc.reed_solomon.ReedSolomon.
        decode_many`. Wave one decodes each codeword with its hard
        (column) erasures plus as many advisory soft (confidence) cell
        erasures as the ``nsym`` budget admits — low-confidence flags are
        *hints*, so wave two retries exactly the rows wave one failed,
        with the hard erasures alone: a wrong confidence flag must never
        lose a codeword that plain decoding would have saved. Codewords
        with no soft flags get their full verdict in wave one (a retry
        would repeat the identical call). Per-unit output is
        byte-identical to the frozen per-codeword loop
        (``tests/oracles/core.py``).

        Args:
            received_units: outputs of :meth:`receive` /
                :meth:`receive_many`.
            extra_erasure_columns: applied to every unit (see
                :meth:`correct_matrix`).

        Returns:
            One ``(corrected_matrix, DecodeReport)`` pair per unit.
        """
        with get_tracer().span(
            "pipeline.correct", n_units=len(received_units)
        ):
            return self._correct_matrix_many_impl(
                received_units, extra_erasure_columns
            )

    def _correct_matrix_many_impl(
        self,
        received_units: Sequence[ReceivedUnit],
        extra_erasure_columns: Sequence[int] = (),
    ) -> List[Tuple[np.ndarray, DecodeReport]]:
        config = self.matrix_config
        n_units = len(received_units)
        extra = [int(c) for c in extra_erasure_columns]
        erased_lists: List[List[int]] = []
        erased_col_mask = np.zeros((n_units, config.n_columns), dtype=bool)
        for u, unit in enumerate(received_units):
            erased = sorted(set(unit.erased_columns) | set(extra))
            for column in erased:
                if not (0 <= column < config.n_columns):
                    raise ValueError(f"erasure column {column} out of range")
            erased_lists.append(erased)
            erased_col_mask[u, erased] = True
        matrices = (
            np.stack([unit.matrix for unit in received_units])
            if n_units
            else np.zeros(
                (0, config.payload_rows, config.n_columns), dtype=np.int64
            )
        ).copy()
        if self._rs is None or n_units == 0:
            return [
                (matrices[u], DecodeReport(
                    erased_columns=erased_lists[u],
                    failed_codewords=[],
                    corrected_symbols=0,
                ))
                for u in range(n_units)
            ]

        rs = self._rs
        n_codewords = self.layout.n_codewords
        data_columns = config.data_columns
        # Per-unit boolean cell-erasure matrices (one scatter per unit
        # instead of per-codeword tuple-set membership); soft flags on
        # hard-erased columns are redundant and drop out here.
        soft_cells = np.zeros(
            (n_units, config.payload_rows, config.n_columns), dtype=bool
        )
        for u, unit in enumerate(received_units):
            for row, column in unit.cell_erasures:
                soft_cells[u, int(row), int(column)] = True
        soft_cells &= ~erased_col_mask[:, None, :]

        # Gather every unit's every codeword: (U, K, n) -> (U*K, n).
        words = matrices[
            :, self._codeword_rows, self._codeword_cols
        ].reshape(-1, rs.n)
        hard_mask = erased_col_mask[:, self._codeword_cols].reshape(-1, rs.n)
        soft_mask = soft_cells[
            np.arange(n_units)[:, None, None],
            self._codeword_rows, self._codeword_cols,
        ].reshape(-1, rs.n)

        # Wave 1: hard erasures plus the soft flags that fit the budget,
        # lowest position first (the oracle loop truncates
        # ``soft_positions[:nsym - n_hard]`` in ascending order).
        budget = np.maximum(rs.nsym - hard_mask.sum(axis=1), 0)
        kept_soft = soft_mask & (
            np.cumsum(soft_mask, axis=1) <= budget[:, None]
        )
        result = rs.decode_many(words, hard_mask | kept_soft)
        ok = result.ok.copy()
        messages = result.messages
        n_fixed = result.n_corrected.copy()

        # Wave 2: hard-only retry for the rows whose soft hints lost the
        # decode. Rows whose wave-1 mask already was hard-only would just
        # repeat the identical call, so they keep their verdict.
        retry = np.flatnonzero(~ok & kept_soft.any(axis=1))
        second = None
        if retry.size:
            second = rs.decode_many(words[retry], hard_mask[retry])
            ok[retry] = second.ok
            messages[retry] = second.messages
            n_fixed[retry] = second.n_corrected

        tracer = get_tracer()
        if tracer.is_recording:
            metrics = tracer.metrics
            metrics.counter("rs.codewords").add(words.shape[0])
            metrics.counter("rs.hard_erasures").add(int(hard_mask.sum()))
            metrics.counter("rs.soft_flags").add(int(soft_mask.sum()))
            metrics.counter("rs.soft_kept").add(int(kept_soft.sum()))
            metrics.counter("rs.erasure_budget").add(int(budget.sum()))
            metrics.counter("rs.corrected_symbols").add(
                int(np.where(ok, n_fixed, 0).sum())
            )
            metrics.counter("rs.retry_rows").add(int(retry.size))
            if second is not None:
                metrics.counter("rs.retry_recovered").add(
                    int(second.ok.sum())
                )
            # Final per-row verdicts: wave-1 reasons with the retried
            # rows overwritten by their hard-only wave-2 verdict.
            final_reasons = result.reasons.copy()
            if second is not None:
                final_reasons[retry] = second.reasons
            tracer.metrics.histogram("rs.failure_reasons").observe_counts(
                reason_counts(final_reasons)
            )

        # Scatter corrected data symbols back; failed codewords keep
        # their received symbols.
        ok_grid = ok.reshape(n_units, n_codewords)
        message_grid = messages.reshape(n_units, n_codewords, rs.k)
        unit_ids, codeword_ids = np.nonzero(ok_grid)
        matrices[
            unit_ids[:, None],
            self._codeword_rows[codeword_ids, :data_columns],
            self._codeword_cols[codeword_ids, :data_columns],
        ] = message_grid[unit_ids, codeword_ids]
        fixed_grid = np.where(ok_grid, n_fixed.reshape(ok_grid.shape), 0)

        return [
            (matrices[u], DecodeReport(
                erased_columns=erased_lists[u],
                failed_codewords=[int(k) for k in
                                  np.flatnonzero(~ok_grid[u])],
                corrected_symbols=int(fixed_grid[u].sum()),
            ))
            for u in range(n_units)
        ]

    def correct(
        self,
        received: ReceivedUnit,
        n_data_bits: int,
        ranking: Optional[np.ndarray] = None,
        extra_erasure_columns: Sequence[int] = (),
    ) -> Tuple[np.ndarray, DecodeReport]:
        """RS-correct a received matrix and recover the original bits.

        The one-unit case of :meth:`correct_many`.

        Args:
            received: output of :meth:`receive`.
            n_data_bits: payload length the caller stored.
            ranking: the priority permutation used at encode time.
            extra_erasure_columns: see :meth:`correct_matrix`.
        """
        return self.correct_many(
            [received], [n_data_bits], ranking, extra_erasure_columns
        )[0]

    def correct_many(
        self,
        received_units: Sequence[ReceivedUnit],
        n_data_bits: Sequence[int],
        ranking: Optional[np.ndarray] = None,
        extra_erasure_columns: Sequence[int] = (),
    ) -> List[Tuple[np.ndarray, DecodeReport]]:
        """RS-correct and bit-extract several units in one batched pass.

        All units' dirty codewords decode through one
        :meth:`correct_matrix_many` call (one batched errata wave plus at
        most one soft-erasure retry wave), then each unit's data symbols
        are read back in placement order and un-ranked.
        ``n_data_bits[u]`` is unit ``u``'s payload size; ``ranking`` and
        ``extra_erasure_columns`` apply per unit.
        """
        if len(n_data_bits) != len(received_units):
            raise ValueError(
                f"expected {len(received_units)} payload sizes, "
                f"got {len(n_data_bits)}"
            )
        results = self.correct_matrix_many(
            received_units, extra_erasure_columns
        )
        out = []
        for (matrix, report), size in zip(results, n_data_bits):
            prioritized = self._symbols_to_bits(
                matrix[self._placement_rows, self._placement_cols]
            )
            out.append((self._unrank(prioritized, int(size), ranking),
                        report))
        return out

    def decode(
        self,
        clusters: Union[Sequence[ReadCluster], ReadBatch],
        n_data_bits: int,
        ranking: Optional[np.ndarray] = None,
        extra_erasure_columns: Sequence[int] = (),
    ) -> Tuple[np.ndarray, DecodeReport]:
        """Full decode: :meth:`receive` followed by :meth:`correct`.

        An unlabeled read pool clusters first:
        ``decode(clusterer.cluster_batch(pool), n_data_bits)``.
        """
        received = self.receive(clusters)
        return self.correct(
            received, n_data_bits, ranking, extra_erasure_columns
        )

    def prioritized_bits(self, received_or_matrix) -> np.ndarray:
        """Data bits in placement (priority) order, without un-ranking.

        Accepts a :class:`ReceivedUnit` or a raw matrix. Used by staged
        decodes that must parse a directory before the ranking is known.
        """
        matrix = getattr(received_or_matrix, "matrix", received_or_matrix)
        return self._symbols_to_bits(
            np.asarray(matrix)[self._placement_rows, self._placement_cols]
        )

    def unrank_bits(
        self,
        prioritized: np.ndarray,
        n_data_bits: int,
        ranking: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Invert the priority permutation over already-extracted bits."""
        return self._unrank(prioritized, n_data_bits, ranking)

    # -- bit/symbol plumbing ----------------------------------------------------

    def _unrank(
        self,
        prioritized: np.ndarray,
        n_data_bits: int,
        ranking: Optional[np.ndarray],
    ) -> np.ndarray:
        if not (0 <= n_data_bits <= self.capacity_bits):
            raise ValueError(f"n_data_bits {n_data_bits} out of range")
        if ranking is None:
            return prioritized[:n_data_bits].copy()
        ranking = np.asarray(ranking, dtype=np.int64)
        if ranking.shape != (n_data_bits,):
            raise ValueError("ranking length must equal n_data_bits")
        bits = np.zeros(n_data_bits, dtype=np.uint8)
        bits[ranking] = prioritized[:n_data_bits]
        return bits

    def _bits_to_symbols(self, bits: np.ndarray) -> np.ndarray:
        """MSB-first ``m``-bit groups along the last axis -> symbols."""
        m = self.matrix_config.m
        grouped = bits.reshape(bits.shape[:-1] + (-1, m)).astype(np.int64)
        weights = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)
        return grouped @ weights

    def _symbols_to_bits(self, symbols: np.ndarray) -> np.ndarray:
        m = self.matrix_config.m
        shifts = np.arange(m - 1, -1, -1, dtype=np.int64)
        bits = (symbols[:, None] >> shifts) & 1
        return bits.reshape(-1).astype(np.uint8)
