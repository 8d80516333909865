"""Differential suite: batched errata decoder vs the frozen scalar chain.

``ReedSolomon.decode_many`` must be byte-identical to
``ReferenceReedSolomon.decode`` row for row — corrected symbols, corrected
counts, and which rows fail — across error/erasure mixes at, below, and
beyond capability, duplicate and boundary erasure indices, shortened
codes, and all-erasure rows. The pipeline's two-wave soft-erasure routing
(``correct_matrix_many``) is pinned the same way against the frozen
per-codeword loop (``correct_matrix_loop_reference``), and the float32
bit-plane products (``parity_many``/``syndromes_many``) against the
frozen float64 ones (``Float64BitPlaneProducts``).
"""

import numpy as np
import pytest

from oracles.core import correct_matrix_loop_reference
from oracles.ecc import Float64BitPlaneProducts, ReferenceReedSolomon
from repro.core.layout import MatrixConfig
from repro.core.pipeline import (
    DnaStoragePipeline,
    PipelineConfig,
    ReceivedUnit,
)
from repro.ecc import DecodeFailure, ReedSolomon

#: (m, nsym, n) codec shapes: small shortened, odd-field, mid shortened,
#: natural-length GF(256), and a wide-field code.
CODECS = [
    (8, 16, 80),
    (8, 8, 40),
    (4, 5, 15),
    (8, 47, 255),
    (12, 10, 60),
]


def _reference_rows(ref, words, erasure_lists):
    """Run the frozen scalar decoder row by row; mirror the batch result."""
    messages = []
    counts = []
    ok = []
    for word, erasures in zip(words, erasure_lists):
        try:
            message, n_fixed = ref.decode(word, erasures)
            messages.append(message)
            counts.append(n_fixed)
            ok.append(True)
        except DecodeFailure:
            messages.append(None)
            counts.append(0)
            ok.append(False)
    return messages, counts, ok


def _assert_matches_reference(rs, ref, words, erasure_lists):
    result = rs.decode_many(words, erasure_lists)
    messages, counts, ok = _reference_rows(ref, words, erasure_lists)
    np.testing.assert_array_equal(result.ok, ok)
    for row in range(len(words)):
        if ok[row]:
            np.testing.assert_array_equal(
                result.messages[row], messages[row],
                err_msg=f"row {row}: corrected symbols diverge",
            )
            assert int(result.n_corrected[row]) == counts[row], (
                f"row {row}: corrected count diverges"
            )
        else:
            assert not result.ok[row]
            assert int(result.reasons[row]) != 0


def _noisy_batch(rs, rng, n_rows, max_errors, max_erasures):
    """Random codewords with error/erasure mixes straddling capability."""
    words = np.empty((n_rows, rs.n), dtype=np.int64)
    erasure_lists = []
    for row in range(n_rows):
        message = rng.integers(0, rs.field.order, size=rs.k)
        word = rs.encode(message)
        positions = rng.permutation(rs.n)
        n_errors = int(rng.integers(0, max_errors + 1))
        n_erasures = int(rng.integers(0, max_erasures + 1))
        for pos in positions[:n_errors]:
            word[pos] ^= int(rng.integers(1, rs.field.order))
        erasure_lists.append(
            [int(p) for p in positions[n_errors:n_errors + n_erasures]]
        )
        words[row] = word
    return words, erasure_lists


class TestBatchedVsReference:
    @pytest.mark.parametrize("m,nsym,n", CODECS)
    def test_fuzz_mixes_straddling_capability(self, m, nsym, n):
        rs = ReedSolomon(m, nsym=nsym, n=n)
        ref = ReferenceReedSolomon(m, nsym=nsym, n=n)
        rng = np.random.default_rng(m * 1000 + nsym)
        # Mixes go well beyond capability: up to nsym errors and nsym
        # erasures in one row, so every failure branch gets exercised.
        words, erasure_lists = _noisy_batch(
            rs, rng, n_rows=120, max_errors=nsym, max_erasures=nsym
        )
        _assert_matches_reference(rs, ref, words, erasure_lists)

    def test_duplicate_and_boundary_erasure_indices(self):
        rs = ReedSolomon(8, nsym=8, n=40)
        ref = ReferenceReedSolomon(8, nsym=8, n=40)
        rng = np.random.default_rng(17)
        words, _ = _noisy_batch(rs, rng, n_rows=6, max_errors=2,
                                max_erasures=0)
        erasure_lists = [
            [0, 0, 0],                # duplicates collapse to one
            [39, 39, 0],              # both boundaries, duplicated
            [0, 1, 2, 2, 1, 0],       # interleaved duplicates
            [39] * 8,                 # duplicates must not blow the budget
            [],                       # no erasures at all
            [5, 4, 3, 2, 1, 0, 0],    # unsorted with a duplicate
        ]
        _assert_matches_reference(rs, ref, words, erasure_lists)

    def test_all_erasure_rows_fail_in_both(self):
        rs = ReedSolomon(8, nsym=8, n=40)
        ref = ReferenceReedSolomon(8, nsym=8, n=40)
        rng = np.random.default_rng(23)
        words, _ = _noisy_batch(rs, rng, n_rows=3, max_errors=0,
                                max_erasures=0)
        erasure_lists = [
            list(range(40)),          # every position erased
            list(range(9)),           # one past the budget
            list(range(8)),           # exactly the budget (decodes)
        ]
        _assert_matches_reference(rs, ref, words, erasure_lists)
        result = rs.decode_many(words, erasure_lists)
        assert list(result.ok) == [False, False, True]

    def test_erasure_only_rows_at_full_budget(self):
        """nsym erasures and no errors: decodes with count == nsym."""
        rs = ReedSolomon(8, nsym=12, n=60)
        ref = ReferenceReedSolomon(8, nsym=12, n=60)
        rng = np.random.default_rng(29)
        words = np.empty((8, rs.n), dtype=np.int64)
        erasure_lists = []
        for row in range(8):
            word = rs.encode(rng.integers(0, 256, size=rs.k))
            positions = rng.permutation(rs.n)[:rs.nsym]
            word[positions] = rng.integers(0, 256, size=rs.nsym)
            words[row] = word
            erasure_lists.append([int(p) for p in positions])
        _assert_matches_reference(rs, ref, words, erasure_lists)

    def test_mask_and_list_forms_agree(self):
        rs = ReedSolomon(8, nsym=8, n=40)
        rng = np.random.default_rng(31)
        words, erasure_lists = _noisy_batch(rs, rng, n_rows=40,
                                            max_errors=4, max_erasures=8)
        mask = np.zeros((40, rs.n), dtype=bool)
        for row, erasures in enumerate(erasure_lists):
            mask[row, erasures] = True
        by_list = rs.decode_many(words, erasure_lists)
        by_mask = rs.decode_many(words, mask)
        np.testing.assert_array_equal(by_list.messages, by_mask.messages)
        np.testing.assert_array_equal(by_list.n_corrected,
                                      by_mask.n_corrected)
        np.testing.assert_array_equal(by_list.ok, by_mask.ok)
        np.testing.assert_array_equal(by_list.reasons, by_mask.reasons)

    def test_empty_batch(self):
        rs = ReedSolomon(8, nsym=8, n=40)
        result = rs.decode_many(np.zeros((0, 40), dtype=np.int64))
        assert result.n_rows == 0
        assert result.messages.shape == (0, rs.k)
        assert result.failed_rows().size == 0

    def test_scalar_decode_matches_reference_failure_for_failure(self):
        """The public scalar wrapper raises exactly when the frozen
        scalar chain raises (same erasure-validation errors too)."""
        rs = ReedSolomon(8, nsym=6, n=30)
        ref = ReferenceReedSolomon(8, nsym=6, n=30)
        rng = np.random.default_rng(37)
        word = rs.encode(rng.integers(0, 256, size=rs.k))
        for bad in ([-1], [30], [0] * 3 + [99]):
            with pytest.raises(ValueError):
                ref.decode(word, bad)
            with pytest.raises(ValueError):
                rs.decode(word, bad)
        with pytest.raises(DecodeFailure):
            ref.decode(word, list(range(7)))
        with pytest.raises(DecodeFailure):
            rs.decode(word, list(range(7)))

    def test_reasons_carry_labels(self):
        from repro.ecc.batched import REASON_LABELS

        rs = ReedSolomon(8, nsym=4, n=20)
        rng = np.random.default_rng(41)
        word = rs.encode(rng.integers(0, 256, size=rs.k))
        word[:5] ^= rng.integers(1, 256, size=5)  # beyond capability
        result = rs.decode_many(word[None, :])
        assert not result.ok[0]
        assert int(result.reasons[0]) in REASON_LABELS


class TestBitPlaneProductsVsFloat64Reference:
    """The float32 products equal the frozen float64 ones byte for byte
    at the benchmark's paper-scale and pool geometries."""

    @pytest.mark.parametrize("m,nsym,n,n_rows", [
        (16, 22, 120, 164),  # archive: 2 units x 82 codewords
        (8, 47, 255, 30),    # pool: 1 unit x 30 codewords
    ], ids=["archive", "pool"])
    def test_products_match_float64_reference(self, m, nsym, n, n_rows):
        rs = ReedSolomon(m, nsym=nsym, n=n)
        reference = Float64BitPlaneProducts(rs)
        rng = np.random.default_rng(m * 1000 + n)
        top = rs.field.max_value
        messages = np.vstack([
            rng.integers(0, top + 1, size=(n_rows, rs.k)),
            np.zeros((1, rs.k), dtype=np.int64),
            np.full((1, rs.k), top),
        ])
        parity = rs.parity_many(messages)
        np.testing.assert_array_equal(parity,
                                      reference.parity_many(messages))
        words = np.vstack([
            np.hstack([messages, parity]),  # codewords: zero syndromes
            rng.integers(0, top + 1, size=(n_rows, n)),
            np.full((1, n), top),
        ])
        syndromes = rs.syndromes_many(words)
        np.testing.assert_array_equal(syndromes,
                                      reference.syndromes_many(words))
        assert not syndromes[:messages.shape[0]].any()
        assert syndromes[messages.shape[0]:].any(axis=1).all()


class TestSoftErasureWaves:
    """The two-wave correct_matrix_many routing vs the frozen loop."""

    CONFIG = PipelineConfig(
        matrix=MatrixConfig(m=8, n_columns=60, nsym=12, payload_rows=8)
    )

    def _noisy_unit(self, pipeline, rng, n_error_cols, n_lost,
                    soft_cells, misleading_soft):
        bits = rng.integers(0, 2, size=pipeline.capacity_bits,
                            dtype=np.uint8)
        matrix = pipeline.encode(bits).matrix.copy()
        columns = rng.permutation(60)
        for column in columns[:n_error_cols]:
            matrix[int(rng.integers(0, 8)), column] ^= int(
                rng.integers(1, 256)
            )
        erased = [int(c) for c in columns[n_error_cols:
                                          n_error_cols + n_lost]]
        matrix[:, erased] = 0
        cells = [
            (int(rng.integers(0, 8)), int(rng.integers(0, 60)))
            for _ in range(soft_cells)
        ]
        if misleading_soft:
            # Flag whole healthy columns: enough wrong hints to push
            # wave 1 past capability so wave 2 must rescue the rows.
            cells += [
                (row, int(column))
                for row in range(8)
                for column in columns[40:46]
            ]
        return ReceivedUnit(
            matrix=matrix,
            erased_columns=erased,
            duplicate_columns=[],
            invalid_strands=0,
            cell_erasures=cells,
        )

    def test_batched_waves_match_loop_reference(self):
        pipeline = DnaStoragePipeline(self.CONFIG)
        rng = np.random.default_rng(97)
        units = [
            self._noisy_unit(
                pipeline, rng,
                n_error_cols=int(rng.integers(0, 10)),
                n_lost=int(rng.integers(0, 8)),
                soft_cells=int(rng.integers(0, 10)),
                misleading_soft=bool(rng.integers(0, 2)),
            )
            for _ in range(30)
        ]
        batched = pipeline.correct_matrix_many(units)
        for unit, (matrix, report) in zip(units, batched):
            want_matrix, want_report = \
                correct_matrix_loop_reference(pipeline, unit)
            np.testing.assert_array_equal(matrix, want_matrix)
            assert report.failed_codewords == want_report.failed_codewords
            assert report.corrected_symbols == want_report.corrected_symbols
            assert report.erased_columns == want_report.erased_columns

    def test_misleading_soft_flags_force_second_wave(self):
        """Wrong confidence hints must never lose a codeword plain
        decoding would have saved: wave 1 (augmented) fails, wave 2
        (hard-only) rescues, and the outcome equals the loop reference."""
        pipeline = DnaStoragePipeline(self.CONFIG)
        rng = np.random.default_rng(101)
        bits = rng.integers(0, 2, size=pipeline.capacity_bits,
                            dtype=np.uint8)
        matrix = pipeline.encode(bits).matrix.copy()
        # Two real errors per codeword (2*2 <= nsym=12: decodable), plus
        # misleading soft flags on 11 healthy columns — the augmented
        # budget fills with wrong hints, 2*2 + 11 > 12 fails wave 1.
        for row in range(8):
            matrix[row, 0] ^= 1 + row
            matrix[row, 1] ^= 17 + row
        cells = [(row, column) for row in range(8)
                 for column in range(10, 21)]
        unit = ReceivedUnit(
            matrix=matrix, erased_columns=[], duplicate_columns=[],
            invalid_strands=0, cell_erasures=cells,
        )
        calls = []
        original = ReedSolomon.decode_many

        def counting(self, words, erasure_table=None):
            calls.append(words.shape[0])
            return original(self, words, erasure_table)

        ReedSolomon.decode_many = counting
        try:
            (got_matrix, got_report), = pipeline.correct_matrix_many([unit])
        finally:
            ReedSolomon.decode_many = original
        assert len(calls) == 2, "misleading flags must trigger wave 2"
        want_matrix, want_report = \
            correct_matrix_loop_reference(pipeline, unit)
        np.testing.assert_array_equal(got_matrix, want_matrix)
        assert got_report.failed_codewords == want_report.failed_codewords
        assert got_report.failed_codewords == []
        assert got_report.corrected_symbols == want_report.corrected_symbols
