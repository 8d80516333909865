"""The end-to-end DNA storage pipeline (the paper's Section 6 methodology).

Encoding: data bits -> priority permutation -> matrix placement -> per-
codeword Reed-Solomon parity -> per-column DNA strands (index + payload).

Decoding: a read batch (reads grouped into clusters) -> consensus
(two-way by default) -> index parse and column assembly -> per-codeword
RS error/erasure correction -> inverse placement -> inverse permutation
-> data bits.

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

The decode stages hand each other one columnar outcome
(:mod:`repro.core.outcome`): ``receive_many`` returns stacked received
matrices and erasure masks, ``correct_matrix_many`` takes them as they
are (a list of :class:`ReceivedUnit` is packed into the same arrays
first) and returns ``(U, K)`` codeword verdicts, and ``correct_many``
extracts every unit's bits in one pass over the ``(U, capacity_bits)``
stack. No per-unit Python object is built on the way; the per-unit
:class:`ReceivedUnit` and :class:`DecodeReport` views are built when an
outcome is indexed or iterated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.channel.readbatch import ReadBatch
from repro.codec.basemap import BASES
from repro.consensus.base import Reconstructor, consensus_span
from repro.consensus.two_way import TwoWayReconstructor
from repro.core.layout import LayoutPolicy, MatrixConfig, build_layout
from repro.core.outcome import (
    CorrectedUnits,
    DecodedUnits,
    DecodeReport,
    ReceivedUnit,
    ReceivedUnits,
    UnitReports,
    unrank,
)
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
        # The same cells as row-major positions in a flattened matrix.
        self._codeword_cells = (self._codeword_rows * config.matrix.n_columns
                                + self._codeword_cols)

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
        batch: ReadBatch,
        confidence_threshold: Optional[float] = None,
    ) -> ReceivedUnit:
        """Consensus + column assembly for one unit; no error correction.

        The one-unit case of :meth:`receive_many`.

        Args:
            batch: one :class:`~repro.channel.readbatch.ReadBatch`
                covering the unit, one cluster per molecule in any order.
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
        return self.receive_many(
            batch, [0, batch.n_clusters], confidence_threshold
        )[0]

    def receive_many(
        self,
        batch: ReadBatch,
        unit_boundaries: Optional[np.ndarray] = None,
        confidence_threshold: Optional[float] = None,
    ) -> ReceivedUnits:
        """Consensus + column assembly for *several units* in one pass.

        ``batch`` spans every cluster of every unit (units back to back,
        see :meth:`~repro.channel.readbatch.ReadBatch.concat`), the
        reconstructor's batch entry point runs **once** over all
        surviving clusters, and the index parsing happens as array
        operations over the whole estimate stack — base-4 symbol
        grouping, index validation, first-claim-wins column assembly and
        confidence-cell extraction, all segmented by unit. The result is
        the columnar :class:`~repro.core.outcome.ReceivedUnits`; indexing
        it builds one unit's :class:`ReceivedUnit`, byte-identical to the
        frozen per-estimate parse loop (``tests/oracles/core.py``).

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
                    int(received.invalid.sum())
                )
                metrics.counter("receive.duplicate_strands").add(
                    len(received.duplicates)
                )
                metrics.counter("receive.erased_columns").add(
                    int(received.erased.sum())
                )
                metrics.counter("receive.cell_erasures").add(
                    len(received.cells)
                )
        return received

    def _receive_many_impl(
        self,
        batch: ReadBatch,
        unit_boundaries: Optional[np.ndarray],
        confidence_threshold: Optional[float],
    ) -> ReceivedUnits:
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
        return ReceivedUnits(
            matrices=matrices,
            erased=~filled,
            invalid=invalid_counts,
            duplicates=np.stack([unit_of_estimate[duplicate_rows],
                                 columns[duplicate_rows]], axis=1),
            cells=np.stack([unit_of_estimate[winners[low_winner]], low_row,
                            columns[winners[low_winner]]], axis=1),
        )

    def decode_many(
        self,
        batch: ReadBatch,
        n_data_bits,
        unit_boundaries: Optional[np.ndarray] = None,
        ranking: Optional[np.ndarray] = None,
        extra_erasure_columns: Sequence[int] = (),
        confidence_threshold: Optional[float] = None,
    ) -> DecodedUnits:
        """Decode several units from one spanning batch.

        One :meth:`receive_many` pass (a single consensus batch call over
        every unit's clusters) feeding one :meth:`correct_many` pass (a
        single batched errata decode over every unit's dirty codewords).
        ``n_data_bits`` is a scalar applied to every unit or one value per
        unit; ``ranking``/``extra_erasure_columns`` apply per unit,
        ``confidence_threshold`` to the whole receive pass (as in
        :meth:`receive`). Returns :meth:`correct_many`'s outcome, one
        ``(bits, DecodeReport)`` pair per unit.
        """
        with get_tracer().span("pipeline.decode_many"):
            received = self.receive_many(
                batch, unit_boundaries,
                confidence_threshold=confidence_threshold,
            )
            sizes = (n_data_bits if np.ndim(n_data_bits)
                     else [n_data_bits] * len(received))
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
        received_units: Union[ReceivedUnits, Sequence[ReceivedUnit]],
        extra_erasure_columns: Sequence[int] = (),
    ) -> CorrectedUnits:
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
            received_units: :meth:`receive_many`'s outcome, or a list of
                :class:`ReceivedUnit` (packed into the same arrays by
                :meth:`ReceivedUnits.pack <repro.core.outcome.
                ReceivedUnits.pack>`).
            extra_erasure_columns: applied to every unit (see
                :meth:`correct_matrix`).

        Returns:
            The columnar :class:`~repro.core.outcome.CorrectedUnits`, one
            ``(corrected_matrix, DecodeReport)`` pair per unit.
        """
        config = self.matrix_config
        received = ReceivedUnits.pack(
            received_units, (config.payload_rows, config.n_columns)
        )
        with get_tracer().span("pipeline.correct", n_units=len(received)):
            return self._correct_matrix_many_impl(
                received, extra_erasure_columns
            )

    def _correct_matrix_many_impl(
        self,
        received: ReceivedUnits,
        extra_erasure_columns: Sequence[int] = (),
    ) -> CorrectedUnits:
        config = self.matrix_config
        n_units = len(received)
        n_codewords = self.layout.n_codewords
        extra = [int(c) for c in extra_erasure_columns]
        for column in extra:
            if not 0 <= column < config.n_columns:
                raise ValueError(f"erasure column {column} out of range")
        erased = received.erased.copy()
        if extra:
            erased[:, extra] = True
        matrices = received.matrices.copy()
        if self._rs is None or n_units == 0:
            return CorrectedUnits(matrices, UnitReports(
                erased, np.ones((n_units, n_codewords), dtype=bool),
                np.zeros((n_units, n_codewords), dtype=np.int64),
            ))

        rs = self._rs
        flat = matrices.reshape(n_units, -1)  # a view, cells row-major
        # Gather every unit's every codeword: (U, K, n) -> (U*K, n).
        words = flat[:, self._codeword_cells].reshape(-1, rs.n)
        hard_mask = erased[:, self._codeword_cols].reshape(-1, rs.n)
        budget = np.maximum(rs.nsym - hard_mask.sum(axis=1), 0)
        erasures = hard_mask
        n_soft = n_kept = 0
        if len(received.cells):
            # Soft flags on hard-erased columns are redundant and drop
            # out.
            soft_cells = np.zeros(matrices.shape, dtype=bool)
            cell_units, cell_rows, cell_columns = received.cells.T
            soft_cells[cell_units, cell_rows, cell_columns] = True
            soft_cells &= ~erased[:, None, :]
            soft_mask = soft_cells.reshape(n_units, -1)[
                :, self._codeword_cells
            ].reshape(-1, rs.n)
            # Wave 1: hard erasures plus the soft flags that fit the
            # budget, lowest position first (the oracle loop truncates
            # ``soft_positions[:nsym - n_hard]`` in ascending order).
            kept_soft = soft_mask & (
                np.cumsum(soft_mask, axis=1) <= budget[:, None]
            )
            n_soft, n_kept = int(soft_mask.sum()), int(kept_soft.sum())
            erasures = hard_mask | kept_soft
        result = rs.decode_many(words, erasures)
        ok = result.ok.copy()
        messages = result.messages
        n_fixed = result.n_corrected.copy()

        # Wave 2: hard-only retry for the rows whose soft hints lost the
        # decode. Rows whose wave-1 mask already was hard-only would just
        # repeat the identical call, so they keep their verdict.
        retry = (np.flatnonzero(~ok & kept_soft.any(axis=1)) if n_kept
                 else np.zeros(0, dtype=np.int64))
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
            metrics.counter("rs.soft_flags").add(n_soft)
            metrics.counter("rs.soft_kept").add(n_kept)
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

        # Write corrected data symbols back; a failed codeword keeps its
        # received symbols (codewords cover disjoint cells).
        ok_grid = ok.reshape(n_units, n_codewords)
        data_cells = self._codeword_cells[:, :config.data_columns]
        flat[:, data_cells] = np.where(
            ok_grid[:, :, None],
            messages.reshape(n_units, n_codewords, rs.k),
            flat[:, data_cells],
        )
        return CorrectedUnits(matrices, UnitReports(
            erased, ok_grid,
            np.where(ok_grid, n_fixed.reshape(ok_grid.shape), 0),
        ))

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
        received_units: Union[ReceivedUnits, Sequence[ReceivedUnit]],
        n_data_bits: Sequence[int],
        ranking: Optional[np.ndarray] = None,
        extra_erasure_columns: Sequence[int] = (),
    ) -> DecodedUnits:
        """RS-correct and bit-extract several units in one batched pass.

        All units' dirty codewords decode through one
        :meth:`correct_matrix_many` call (one batched errata wave plus at
        most one soft-erasure retry wave), then every unit's data symbols
        are read back in placement order as one ``(U, capacity_bits)``
        bit stack. ``n_data_bits[u]`` is unit ``u``'s payload size;
        ``ranking`` and ``extra_erasure_columns`` apply per unit. The
        result, :class:`~repro.core.outcome.DecodedUnits`, iterates as
        one ``(bits, DecodeReport)`` pair per unit, each un-ranked when
        it is built.
        """
        sizes = np.asarray(n_data_bits, dtype=np.int64)
        if sizes.shape != (len(received_units),):
            raise ValueError(
                f"expected {len(received_units)} payload sizes, "
                f"got {sizes.size}"
            )
        for size in set(sizes.tolist()):
            self._check_unrank(size, ranking)
        if ranking is not None:
            ranking = np.asarray(ranking, dtype=np.int64)
        corrected = self.correct_matrix_many(
            received_units, extra_erasure_columns
        )
        prioritized = self._symbols_to_bits(
            corrected.matrices[:, self._placement_rows, self._placement_cols]
        )
        return DecodedUnits(prioritized, sizes, ranking, corrected.reports)

    def decode(
        self,
        batch: ReadBatch,
        n_data_bits: int,
        ranking: Optional[np.ndarray] = None,
        extra_erasure_columns: Sequence[int] = (),
    ) -> Tuple[np.ndarray, DecodeReport]:
        """Full decode: :meth:`receive` followed by :meth:`correct`.

        An unlabeled read pool clusters first:
        ``decode(clusterer.cluster_batch(pool), n_data_bits)``.
        """
        received = self.receive(batch)
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
        self._check_unrank(n_data_bits, ranking)
        if ranking is not None:
            ranking = np.asarray(ranking, dtype=np.int64)
        return unrank(prioritized, n_data_bits, ranking)

    # -- bit/symbol plumbing ----------------------------------------------------

    def _check_unrank(
        self, n_data_bits: int, ranking: Optional[np.ndarray]
    ) -> None:
        if not (0 <= n_data_bits <= self.capacity_bits):
            raise ValueError(f"n_data_bits {n_data_bits} out of range")
        if ranking is not None and np.shape(ranking) != (n_data_bits,):
            raise ValueError("ranking length must equal n_data_bits")

    def _bits_to_symbols(self, bits: np.ndarray) -> np.ndarray:
        """MSB-first ``m``-bit groups along the last axis -> symbols."""
        m = self.matrix_config.m
        grouped = bits.reshape(bits.shape[:-1] + (-1, m)).astype(np.int64)
        weights = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)
        return grouped @ weights

    def _symbols_to_bits(self, symbols: np.ndarray) -> np.ndarray:
        """Symbols along the last axis -> their MSB-first ``m``-bit
        groups, back to back along that axis.

        Each symbol's big-endian bytes (one for ``m <= 8``, two for
        ``m <= 16``) unpack to bits at once; the leading ``8 * bytes - m``
        bits of a symbol are its zero high bits and are dropped.
        """
        m = self.matrix_config.m
        n_bytes = 1 if m <= 8 else 2
        octets = np.ascontiguousarray(
            symbols, dtype=np.uint8 if n_bytes == 1 else ">u2"
        ).view(np.uint8).reshape(symbols.shape + (n_bytes,))
        bits = np.unpackbits(octets, axis=-1)[..., 8 * n_bytes - m:]
        return bits.reshape(symbols.shape[:-1] + (-1,))
