"""The vectorized q-gram signature kernel vs the frozen per-character loop."""

import numpy as np
import pytest

from repro.channel import ErrorModel, FixedCoverage, SequencingSimulator
from repro.channel.readbatch import ReadBatch
from oracles.cluster import _qgram_signature as reference_signature
from repro.cluster.signatures import (
    DENSE_SIGNATURE_BYTE_BUDGET,
    batch_signatures,
    batch_signatures_sparse,
    l1_distances,
    qgram_signature,
    rolling_qgram_codes,
)
from repro.codec.basemap import bases_to_indices, random_bases


class TestRollingCodes:
    def test_known_windows(self):
        # ACGT -> windows ACG (0*16+1*4+2=6) and CGT (1*16+2*4+3=27).
        codes = rolling_qgram_codes(bases_to_indices("ACGT"), 3)
        np.testing.assert_array_equal(codes, [6, 27])

    def test_short_input_empty(self):
        assert rolling_qgram_codes(bases_to_indices("AC"), 3).size == 0
        assert rolling_qgram_codes(np.zeros(0, dtype=np.uint8), 2).size == 0

    def test_q_one_is_identity(self):
        idx = bases_to_indices("GATTACA")
        np.testing.assert_array_equal(rolling_qgram_codes(idx, 1), idx)

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            rolling_qgram_codes(np.zeros(3, dtype=np.uint8), 0)

    @pytest.mark.parametrize("q", [1, 2, 4, 8])
    def test_matches_per_character_loop(self, rng, q):
        """The sliding-window dot product is byte-identical to the naive
        per-character rolling loop at every q, including the q=8 regime
        the LSH clusterer runs at."""
        flat = rng.integers(0, 4, 200).astype(np.uint8)
        want = np.array(
            [sum(int(flat[i + j]) * 4 ** (q - 1 - j) for j in range(q))
             for i in range(flat.size - q + 1)],
            dtype=np.int64,
        )
        got = rolling_qgram_codes(flat, q)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestQgramSignature:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 7, 40, 68])
    def test_matches_reference_loop(self, rng, q, length):
        read = random_bases(length, rng)
        want = reference_signature(read, q)
        got = qgram_signature(bases_to_indices(read), q)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_greedy_wrapper_matches_reference(self, rng):
        """The greedy clusterer's on-ramp — string reads packed into a
        batch, signatures from the batch kernel — matches the frozen
        per-character loop, reads shorter than q included."""
        reads = [random_bases(length, rng) for length in (0, 1, 2, 5, 50)]
        signatures = batch_signatures(
            ReadBatch.from_strings([[read] for read in reads]), 3
        )
        for read, got in zip(reads, signatures):
            np.testing.assert_array_equal(got, reference_signature(read, 3))


class TestBatchSignatures:
    def test_rows_match_single_read_kernel(self, rng):
        lengths = [0, 1, 2, 3, 10, 35, 68]
        reads = [rng.integers(0, 4, n).astype(np.uint8) for n in lengths]
        batch = ReadBatch.from_arrays([[r] for r in reads])
        for q in (1, 2, 3):
            signatures = batch_signatures(batch, q)
            assert signatures.shape == (len(reads), 4**q)
            for i, read in enumerate(reads):
                np.testing.assert_array_equal(
                    signatures[i], qgram_signature(read, q)
                )

    def test_windows_never_straddle_read_boundaries(self):
        # AAA|AAA as two reads must not count the cross-boundary windows
        # a concatenated buffer would contain.
        batch = ReadBatch.from_arrays(
            [[np.zeros(3, dtype=np.uint8)], [np.zeros(3, dtype=np.uint8)]]
        )
        signatures = batch_signatures(batch, 2)
        assert signatures[0, 0] == 2 and signatures[1, 0] == 2
        assert signatures.sum() == 4  # not the 5 windows of AAAAAA

    def test_non_tight_views_match(self, rng):
        """Zero-copy sub-batches (offsets not cumsum) gather correctly."""
        strands = [random_bases(30, rng) for _ in range(8)]
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.05), FixedCoverage(4)
        )
        pool = simulator.sequence_batch(strands, rng)
        view = pool.select_prefix(np.full(len(strands), 2))
        tight = ReadBatch.from_arrays(
            [view.reads_of(c) for c in range(view.n_clusters)]
        )
        np.testing.assert_array_equal(
            batch_signatures(view, 3), batch_signatures(tight, 3)
        )

    def test_empty_batch(self):
        batch = ReadBatch.from_arrays([])
        assert batch_signatures(batch, 3).shape == (0, 64)

    def test_triple_form(self, rng):
        reads = [rng.integers(0, 4, 12).astype(np.uint8) for _ in range(3)]
        batch = ReadBatch.from_arrays([[r] for r in reads])
        triple = (batch.buffer, batch.offsets, batch.lengths)
        np.testing.assert_array_equal(
            batch_signatures(triple, 2), batch_signatures(batch, 2)
        )

    def test_memory_guard_refuses_large_q(self, rng):
        """A dense q=8 matrix for a realistic pool crosses the byte
        budget — the guard must refuse before allocating."""
        reads = [rng.integers(0, 4, 40).astype(np.uint8)
                 for _ in range(5000)]
        batch = ReadBatch.from_arrays([[r] for r in reads])
        # 5000 reads x 4**8 bins x 4 bytes = 1.3 GB > the 1 GB budget.
        with pytest.raises(ValueError, match="batch_signatures_sparse"):
            batch_signatures(batch, 8)

    def test_memory_guard_explicit_budget(self, rng):
        reads = [rng.integers(0, 4, 10).astype(np.uint8) for _ in range(4)]
        batch = ReadBatch.from_arrays([[r] for r in reads])
        with pytest.raises(ValueError, match="budget"):
            batch_signatures(batch, 3, max_bytes=64)
        # Raising the budget back over the need allows the same call.
        assert batch_signatures(
            batch, 3, max_bytes=DENSE_SIGNATURE_BYTE_BUDGET
        ).shape == (4, 64)


class TestBatchSignaturesSparse:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_matches_dense(self, rng, q):
        """The COO triples scatter back to exactly the dense matrix."""
        lengths = [0, 1, 2, 3, 10, 35, 68]
        reads = [rng.integers(0, 4, n).astype(np.uint8) for n in lengths]
        batch = ReadBatch.from_arrays([[r] for r in reads])
        dense = batch_signatures(batch, q)
        read_ids, codes, counts = batch_signatures_sparse(batch, q)
        rebuilt = np.zeros_like(dense)
        rebuilt[read_ids, codes] = counts
        np.testing.assert_array_equal(rebuilt, dense)
        # Every stored cell is a real (nonzero) count.
        assert (counts > 0).all()

    def test_triples_sorted_by_read_then_code(self, rng):
        reads = [rng.integers(0, 4, 30).astype(np.uint8) for _ in range(6)]
        batch = ReadBatch.from_arrays([[r] for r in reads])
        read_ids, codes, _ = batch_signatures_sparse(batch, 2)
        keys = read_ids * 16 + codes
        assert (np.diff(keys) > 0).all()

    def test_large_q_stays_read_sized(self, rng):
        """At q=8 the sparse form holds at most one triple per window —
        the whole point of not materializing the 65536-bin histogram."""
        reads = [rng.integers(0, 4, 68).astype(np.uint8)
                 for _ in range(20)]
        batch = ReadBatch.from_arrays([[r] for r in reads])
        read_ids, codes, counts = batch_signatures_sparse(batch, 8)
        assert read_ids.size <= 20 * (68 - 8 + 1)
        assert int(counts.sum()) == 20 * (68 - 8 + 1)
        assert (codes < 4 ** 8).all()

    def test_non_tight_views_match(self, rng):
        strands = [random_bases(30, rng) for _ in range(8)]
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.05), FixedCoverage(4)
        )
        pool = simulator.sequence_batch(strands, rng)
        view = pool.select_prefix(np.full(len(strands), 2))
        tight = ReadBatch.from_arrays(
            [view.reads_of(c) for c in range(view.n_clusters)]
        )
        for got, want in zip(batch_signatures_sparse(view, 3),
                             batch_signatures_sparse(tight, 3)):
            np.testing.assert_array_equal(got, want)

    def test_empty_and_short_reads(self):
        batch = ReadBatch.from_arrays([])
        read_ids, codes, counts = batch_signatures_sparse(batch, 3)
        assert read_ids.size == codes.size == counts.size == 0
        short = ReadBatch.from_arrays([[np.zeros(2, dtype=np.uint8)]])
        read_ids, _, _ = batch_signatures_sparse(short, 3)
        assert read_ids.size == 0


class TestL1Distances:
    def test_matches_pairwise_abs_sum(self, rng):
        signatures = rng.integers(0, 9, (10, 64)).astype(np.int32)
        target = rng.integers(0, 9, 64).astype(np.int32)
        got = l1_distances(signatures, target)
        want = [int(np.abs(row - target).sum()) for row in signatures]
        np.testing.assert_array_equal(got, want)

    def test_lower_bounds_edit_distance(self, rng):
        """l1 / (2q) must never exceed the true edit distance (the greedy
        prefilter's correctness condition)."""
        from repro.cluster import edit_distance

        q = 3
        model = ErrorModel.uniform(0.1)
        for _ in range(25):
            a = random_bases(40, rng)
            b = model.apply(a, rng)
            l1 = int(np.abs(
                qgram_signature(bases_to_indices(a), q).astype(np.int64)
                - qgram_signature(bases_to_indices(b), q)
            ).sum())
            assert l1 <= 2 * q * edit_distance(a, b)
