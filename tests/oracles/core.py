"""Frozen per-unit pipeline loops (the core layer's differential oracles).

These are the original scalar implementations the batched pipeline and
store replaced — one cell, one codeword, one estimate or one unit per
step — kept verbatim so the array code stays pinned against something
obviously correct:

* :func:`encode_loop_reference` (with :func:`_fill_parity` and
  :func:`_column_to_strand`) — the per-cell loop encoder behind
  ``DnaStoragePipeline.encode_many``;
* :func:`receive_loop_reference` (with :func:`_parse_indices` and
  :func:`_low_confidence_rows`) — the per-estimate parse loop behind
  ``receive_many``'s vectorized parse;
* :func:`correct_matrix_loop_reference` (with :func:`_reference_codec`)
  — the per-codeword correction loop behind ``correct_matrix_many``,
  one scalar :class:`~oracles.ecc.ReferenceReedSolomon` decode per dirty
  codeword;
* :func:`decode_units_reference` — the per-unit store decode (one
  reconstructor call, one parse loop and one correction loop per unit)
  behind ``DnaStore.read``.

Each function takes the live pipeline (or store) for its geometry and
reconstructor only. Do not optimize this module; it exists to stay slow
and obviously correct.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from oracles.ecc import ReferenceReedSolomon
from repro.channel.readbatch import ReadBatch
from repro.codec.basemap import DirectCodec
from repro.core.pipeline import DecodeReport, EncodedUnit, ReceivedUnit
from repro.core.ranking import identity_ranking
from repro.core.store import StoreReport
from repro.ecc.reed_solomon import DecodeFailure
from repro.utils.bitio import pack_uint


# -- encode ------------------------------------------------------------------


def encode_loop_reference(
    pipeline, bits: np.ndarray, ranking: Optional[np.ndarray] = None
) -> EncodedUnit:
    """The per-cell loop encoder: placement loop, per-codeword
    :func:`_fill_parity`, per-column strand rendering."""
    prioritized = _prioritize(pipeline, bits, ranking)
    symbols = _bits_to_symbols(pipeline, prioritized)
    config = pipeline.matrix_config
    matrix = np.zeros((config.payload_rows, config.n_columns), dtype=np.int64)
    for value, (row, column) in zip(symbols,
                                    pipeline.layout.placement_order()):
        matrix[row, column] = value
    _fill_parity(pipeline, matrix)
    strands = [
        _column_to_strand(pipeline, matrix, column)
        for column in range(config.n_columns)
    ]
    return EncodedUnit(strands=strands, matrix=matrix,
                       n_data_bits=np.asarray(bits).size)


def _prioritize(
    pipeline, bits: np.ndarray, ranking: Optional[np.ndarray]
) -> np.ndarray:
    """Validate a payload and apply the priority permutation."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1:
        raise ValueError("bits must be a 1-D array")
    if bits.size > pipeline.capacity_bits:
        raise ValueError(
            f"{bits.size} bits exceed unit capacity {pipeline.capacity_bits}"
        )
    if ranking is None:
        ranking = identity_ranking(bits.size)
    ranking = np.asarray(ranking, dtype=np.int64)
    if ranking.shape != (bits.size,):
        raise ValueError("ranking must be a permutation of the bit indices")

    padded = np.zeros(pipeline.capacity_bits, dtype=np.uint8)
    padded[: bits.size] = bits
    prioritized = np.empty(pipeline.capacity_bits, dtype=np.uint8)
    prioritized[: bits.size] = padded[ranking]
    prioritized[bits.size:] = 0  # padding occupies the weakest positions
    return prioritized


def _bits_to_symbols(pipeline, bits: np.ndarray) -> np.ndarray:
    m = pipeline.matrix_config.m
    grouped = bits.reshape(-1, m).astype(np.int64)
    weights = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)
    return grouped @ weights


def _fill_parity(pipeline, matrix: np.ndarray) -> None:
    if pipeline._rs is None:
        return
    data_columns = pipeline.matrix_config.data_columns
    for k in range(pipeline.layout.n_codewords):
        cells = pipeline.layout.codeword_cells(k)
        message = np.array(
            [matrix[row, col] for row, col in cells[:data_columns]],
            dtype=np.int64,
        )
        parity = pipeline._rs.parity(message)
        for value, (row, col) in zip(parity, cells[data_columns:]):
            matrix[row, col] = value


def _column_to_strand(pipeline, matrix: np.ndarray, column: int) -> str:
    config = pipeline.matrix_config
    bits = [pack_uint(column, config.m)]
    bits += [
        pack_uint(int(matrix[row, column]), config.m)
        for row in range(config.payload_rows)
    ]
    return DirectCodec().encode(np.concatenate(bits))


# -- receive -------------------------------------------------------------------


def receive_loop_reference(
    pipeline, clusters, confidence_threshold: Optional[float] = None
) -> ReceivedUnit:
    """Consensus over the unit's surviving clusters (one reconstructor
    batch call), then one :func:`_parse_indices` call per estimate —
    first claim wins, later claims are duplicates."""
    config = pipeline.matrix_config
    batch = (clusters if isinstance(clusters, ReadBatch)
             else ReadBatch.from_clusters(clusters))
    live = batch.drop_lost()
    length = config.strand_length
    if (confidence_threshold is not None
            and hasattr(pipeline.reconstructor,
                        "reconstruct_batch_with_confidence")):
        results = pipeline.reconstructor.reconstruct_batch_with_confidence(
            live, length
        )
        estimates = [e for e, _ in results]
        confidences = [c for _, c in results]
    else:
        estimates = pipeline.reconstructor.reconstruct_batch(live, length)
        confidences = [None] * len(estimates)
    matrix = np.zeros((config.payload_rows, config.n_columns), dtype=np.int64)
    filled: Set[int] = set()
    duplicates: List[int] = []
    cell_erasures: List[Tuple[int, int]] = []
    invalid = 0
    for estimate, confidence in zip(estimates, confidences):
        column, symbols = _parse_indices(pipeline, estimate)
        if column is None:
            invalid += 1
            continue
        if column in filled:
            duplicates.append(column)
            continue  # first strand wins; later claims are dropped
        matrix[:, column] = symbols
        filled.add(column)
        if confidence is not None:
            cell_erasures.extend(
                (row, column)
                for row in _low_confidence_rows(
                    pipeline, confidence, confidence_threshold
                )
            )
    erased = [c for c in range(config.n_columns) if c not in filled]
    return ReceivedUnit(
        matrix=matrix,
        erased_columns=erased,
        duplicate_columns=duplicates,
        invalid_strands=invalid,
        cell_erasures=cell_erasures,
    )


def _low_confidence_rows(
    pipeline, confidence: np.ndarray, threshold: float
) -> List[int]:
    """Payload rows containing any base below the confidence threshold."""
    config = pipeline.matrix_config
    bases_per_symbol = config.m // 2
    payload = confidence[config.index_bases:]
    per_row = payload[: config.payload_rows * bases_per_symbol].reshape(
        config.payload_rows, bases_per_symbol
    )
    return [int(r) for r in np.nonzero(per_row.min(axis=1) < threshold)[0]]


def _parse_indices(
    pipeline, indices: np.ndarray
) -> Tuple[Optional[int], np.ndarray]:
    """Split a consensus strand (as base indices) into column + symbols.

    Vectorized counterpart of decoding the strand to bits and unpacking
    ``m``-bit groups: each base carries two bits, so ``m // 2``
    consecutive bases form one matrix symbol.
    """
    config = pipeline.matrix_config
    indices = np.asarray(indices, dtype=np.int64)
    bases_per_symbol = config.m // 2
    if indices.size != config.strand_length:
        # Truncated or overlong estimates cannot split into index +
        # payload symbols; treat them like a bad index instead of
        # letting the reshape below blow up.
        return None, np.zeros(0, dtype=np.int64)
    # Base-4 big-endian digits -> integers, one symbol per group.
    weights = 4 ** np.arange(bases_per_symbol - 1, -1, -1, dtype=np.int64)
    grouped = indices.reshape(-1, bases_per_symbol)
    values = grouped @ weights
    index = int(values[0])
    if index >= config.n_columns:
        return None, np.zeros(0, dtype=np.int64)
    return index, values[1:]


# -- correct -------------------------------------------------------------------


def correct_matrix_loop_reference(
    pipeline,
    received: ReceivedUnit,
    extra_erasure_columns: Sequence[int] = (),
) -> Tuple[np.ndarray, DecodeReport]:
    """The per-codeword correction loop: one scalar
    :meth:`~oracles.ecc.ReferenceReedSolomon.decode` try/except per dirty
    codeword, soft-erasure fallback per codeword."""
    config = pipeline.matrix_config
    matrix = received.matrix.copy()
    erased = sorted(set(received.erased_columns) | set(
        int(c) for c in extra_erasure_columns
    ))
    for column in erased:
        if not (0 <= column < config.n_columns):
            raise ValueError(f"erasure column {column} out of range")
    failed: List[int] = []
    corrected = 0
    if pipeline._rs is not None:
        rs = _reference_codec(config.m, config.nsym, config.n_columns)
        data_columns = config.data_columns
        words = matrix[pipeline._codeword_rows, pipeline._codeword_cols]
        erased_mask = np.zeros(config.n_columns, dtype=bool)
        erased_mask[erased] = True
        # Boolean cell-erasure matrix, built once per unit: soft
        # flags gather per codeword by fancy indexing below instead
        # of per-cell tuple-set membership tests.
        soft_cells = np.zeros(
            (config.payload_rows, config.n_columns), dtype=bool
        )
        for row, column in received.cell_erasures:
            soft_cells[int(row), int(column)] = True
        soft_cells &= ~erased_mask[None, :]
        zero_mask = erased_mask[pipeline._codeword_cols]
        zeroed = np.where(zero_mask, 0, words)
        clean = ~np.any(rs.syndromes_many(zeroed) != 0, axis=1)
        n_erasures = zero_mask.sum(axis=1)
        for k in range(pipeline.layout.n_codewords):
            erasure_positions = [
                int(j) for j in np.flatnonzero(zero_mask[k])
            ]
            # Low-confidence cells are *advisory* erasures: include
            # them while they fit the budget, and fall back to the
            # hard (column) erasures alone if decoding then fails —
            # a wrong confidence flag must never lose a codeword that
            # plain decoding would have saved.
            soft_positions = [
                int(j) for j in np.flatnonzero(
                    soft_cells[pipeline._codeword_rows[k],
                               pipeline._codeword_cols[k]]
                )
            ]
            if not soft_positions:
                if n_erasures[k] > rs.nsym:
                    failed.append(k)
                    continue
                if clean[k]:
                    corrected += int(n_erasures[k])
                    matrix[pipeline._codeword_rows[k, :data_columns],
                           pipeline._codeword_cols[k, :data_columns]] = \
                        zeroed[k, : rs.k]
                    continue
            budget = rs.nsym - len(erasure_positions)
            augmented = erasure_positions + soft_positions[:max(budget, 0)]
            try:
                message, n_fixed = rs.decode(words[k], augmented)
            except DecodeFailure:
                try:
                    message, n_fixed = rs.decode(
                        words[k], erasure_positions
                    )
                except DecodeFailure:
                    failed.append(k)
                    continue
            corrected += n_fixed
            matrix[pipeline._codeword_rows[k, :data_columns],
                   pipeline._codeword_cols[k, :data_columns]] = message
    report = DecodeReport(
        erased_columns=erased,
        failed_codewords=failed,
        corrected_symbols=corrected,
    )
    return matrix, report


@functools.lru_cache(maxsize=8)
def _reference_codec(m: int, nsym: int, n: int) -> ReferenceReedSolomon:
    """The frozen scalar codec for one geometry, built once."""
    return ReferenceReedSolomon(m, nsym=nsym, n=n)


# -- store ---------------------------------------------------------------------


def decode_units_reference(
    store,
    reads,
    n_data_bits: int,
    ranking: Optional[np.ndarray] = None,
    confidence_threshold: Optional[float] = None,
) -> Tuple[np.ndarray, StoreReport]:
    """The per-unit store decode: N units cost N reconstructor calls.

    ``reads`` is one spanning batch or one batch / cluster list per unit
    (pooled reads must be clustered into per-unit batches first). Each
    unit goes through :func:`receive_loop_reference`,
    :func:`correct_matrix_loop_reference` and bit extraction alone; the
    stripes re-interleave round-robin and ``ranking`` is inverted last.
    Returns ``(bits, StoreReport)``.
    """
    pipeline = store.pipeline
    n_units = store.units_needed(n_data_bits)
    if isinstance(reads, ReadBatch):
        n_columns = pipeline.matrix_config.n_columns
        if reads.n_clusters != n_units * n_columns:
            raise ValueError(
                f"spanning batch holds {reads.n_clusters} clusters; "
                f"expected {n_units} units x {n_columns} columns"
            )
        reads = [reads.select_clusters(u * n_columns, (u + 1) * n_columns)
                 for u in range(n_units)]
    if len(reads) != n_units:
        raise ValueError(
            f"expected clusters for {n_units} units, got {len(reads)}"
        )
    prioritized = np.zeros(n_data_bits, dtype=np.uint8)
    reports = []
    for u, unit_reads in enumerate(reads):
        received = receive_loop_reference(
            pipeline, unit_reads, confidence_threshold
        )
        matrix, report = correct_matrix_loop_reference(pipeline, received)
        stripe = pipeline.prioritized_bits(matrix)
        prioritized[u::n_units] = stripe[: len(range(u, n_data_bits,
                                                      n_units))]
        reports.append(report)
    if ranking is None:
        bits = prioritized
    else:
        bits = np.zeros(n_data_bits, dtype=np.uint8)
        bits[np.asarray(ranking, dtype=np.int64)] = prioritized
    return bits, StoreReport(unit_reports=reports)
