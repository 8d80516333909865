"""Wall-clock budgets for the consensus and channel hot paths.

The batched consensus engine decodes the quickstart-sized unit in well
under 100 ms; the pure-Python per-read scan it replaced took seconds. This
test pins a *generous* ceiling over one encode -> sequence -> decode
roundtrip so the hot path can never silently regress to per-cluster
Python-loop speeds — a 2 s budget is ~20x headroom for the vectorized
engine but far below what any scalar implementation can reach. The same
logic applies to the channel stage: the batched engine emits the
quickstart unit's reads in a few milliseconds, so a 0.5 s ceiling (and a
5x lead over the per-read reference) can only fail if the vectorized pass
regresses to per-copy Python loops. The refinement stages (iterative
realign-and-vote, posterior lattice) carry the same style of guard: the
batched sweeps must lead their frozen per-cluster references by at least
5x on a quickstart-sized unit (measured ~10x for both on the development
machine), plus an absolute ceiling. The store plane gets the same
treatment: one spanning decode of a 32-unit payload must issue exactly
one reconstructor batch call and lead the frozen per-unit oracle loop
(``oracles.core.decode_units_reference``) by at least 3x. The errata plane closes the
loop: a store decode must route every unit's codewords through exactly
one ``ReedSolomon.decode_many`` call, and the batched chain must lead
the frozen per-codeword scalar loop by at least 3x on an all-dirty
multi-unit store. The clustering layer's banded edit-distance kernel
must lead the frozen integer DP (``oracles.cluster``) by at least 2x on
the DP calls one pool-workload read makes.
"""

import time

import numpy as np
import pytest

from consensus.test_vectorized_vs_reference import workload_unit
from oracles.core import correct_matrix_loop_reference, decode_units_reference
from repro.channel import (
    ErrorModel,
    FixedCoverage,
    ReadBatch,
    SequencingSimulator,
)
from repro.core import (
    DnaStoragePipeline,
    MatrixConfig,
    PipelineConfig,
    ReadRequest,
)
from repro.core.store import DnaStore

#: Seconds allowed for one small-unit decode (receive + RS correction).
DECODE_BUDGET_SECONDS = 2.0

#: Minimum lead of the batched two-way scan over the per-cluster
#: reference on a serve-shaped call (median CPU time of 3 runs each).
CONSENSUS_SPEEDUP_FACTOR = 40

#: Most share of rows per non-empty read the two-way scan may get on a
#: serve-shaped unit: at 1% error most reads are exact copies of their
#: strand, and the scan runs one weighted row per distinct (cluster,
#: read) (30% on the unit below).
DISTINCT_ROW_SHARE = 0.4

#: Seconds allowed for one batched store-plane decode of the many-unit
#: perf configuration below.
STORE_DECODE_BUDGET_SECONDS = 0.5

#: Minimum lead of the one-pass store decode over the per-unit reference.
STORE_SPEEDUP_FACTOR = 3

#: Minimum lead of the batched errata decoder (one decode_many over every
#: dirty codeword of every unit) over the frozen per-codeword scalar loop.
ERRATA_SPEEDUP_FACTOR = 3

#: Seconds allowed for the channel stage of one quickstart-sized unit.
CHANNEL_BUDGET_SECONDS = 0.5

#: Seconds allowed for one batched refinement sweep of a quickstart unit.
REFINEMENT_BUDGET_SECONDS = 1.5

#: Minimum lead of a batched refiner over its per-cluster reference.
REFINEMENT_SPEEDUP_FACTOR = 5

#: Minimum lead of the batched posterior lattice over its per-read
#: reference. Lower than the iterative floor: the posterior's batched
#: pass also emits per-position confidences the reference skips, so its
#: measured lead (~6-8x) sits closer to the bar and a single noisy
#: timing sample used to flake the old 5x floor.
POSTERIOR_SPEEDUP_FACTOR = 3

#: Fraction of decode wall time the default (NullTracer) telemetry path
#: is allowed to add.
TRACING_OVERHEAD_BUDGET = 0.05

#: Seconds allowed to cluster the full quickstart-config pool (120
#: strands x coverage 10) on the columnar plane.
CLUSTERING_BUDGET_SECONDS = 2.0

#: Minimum lead of the batched clusterer over the frozen string-plane
#: reference on the differential pool below.
CLUSTERING_SPEEDUP_FACTOR = 5

#: Minimum lead of the LSH-banded clusterer over the batched greedy scan
#: on the reduced pool below. The gap widens with pool size (the greedy
#: scan is quadratic at fixed coverage; benchmarks/test_fig_lsh_scaling
#: measures >5x at 50k reads) — 3x at 1200 reads is the floor a
#: regression to pool x representative candidate generation cannot meet.
LSH_SPEEDUP_FACTOR = 3

#: Minimum lead of the bit-parallel banded kernel over the frozen integer
#: DP on one pool read's DP calls (measured 5x-7x on a 2-core box).
BANDED_KERNEL_SPEEDUP_FACTOR = 2


def best_of(repeats, fn):
    """Best-of-N wall time for ``fn()``: the minimum is robust to the
    scheduler/turbo noise a single sample is not. Returns
    ``(seconds, last result)``."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def median_cpu(repeats, fn):
    """Median CPU seconds (``time.process_time``) of ``repeats`` calls:
    CPU time ignores the wall-clock stalls of a shared box, and the median
    ignores one disturbed run."""
    samples = []
    for _ in range(repeats):
        start = time.process_time()
        fn()
        samples.append(time.process_time() - start)
    return float(np.median(samples))


def quickstart_unit(seed, n_clusters=120, coverage=10, length=68, rate=0.06):
    """Index-array clusters shaped like the quickstart encoding unit."""
    rng = np.random.default_rng(seed)
    model = ErrorModel.uniform(rate)
    clusters = []
    for _ in range(n_clusters):
        original = rng.integers(0, 4, length).astype(np.uint8)
        clusters.append([model.apply_indices(original, rng)
                         for _ in range(coverage)])
    return clusters


class TestPerfBudget:
    def test_small_unit_roundtrip_within_budget(self):
        matrix = MatrixConfig(m=8, n_columns=120, nsym=22, payload_rows=16)
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=matrix))
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.06), FixedCoverage(10)
        )
        clusters = simulator.sequence(unit.strands, rng)

        start = time.perf_counter()
        decoded, report = pipeline.decode(clusters, bits.size)
        elapsed = time.perf_counter() - start

        assert report.clean
        np.testing.assert_array_equal(decoded, bits)
        assert elapsed < DECODE_BUDGET_SECONDS, (
            f"decode took {elapsed:.2f}s; the consensus hot path has "
            f"regressed past the {DECODE_BUDGET_SECONDS:.0f}s budget"
        )

    def test_batched_consensus_beats_per_cluster_reference(self):
        """The batched two-way scan must lead the frozen per-cluster
        reference by at least 40x on a serve-shaped call (128 clusters x
        16 reads, L=28, 1% error): median CPU time of 3 runs each. A scan
        that builds lookahead ballots for every cluster at every position
        and runs the two directions as separate scans leads by only
        ~17-21x; the stacked scan that pays only for disagreeing reads
        leads by ~200x on a 2-core x86 box."""
        from oracles.consensus import ReferenceTwoWayReconstructor
        from repro.consensus import TwoWayReconstructor

        rng = np.random.default_rng(1)
        model = ErrorModel.uniform(0.01)
        clusters = []
        for _ in range(128):
            original = rng.integers(0, 4, 28).astype(np.uint8)
            clusters.append([model.apply_indices(original, rng)
                             for _ in range(16)])
        fast = TwoWayReconstructor()
        reference = ReferenceTwoWayReconstructor()

        batched = median_cpu(3, lambda: fast.reconstruct_batch(
            ReadBatch.from_arrays(clusters), 28
        ))
        scalar = median_cpu(3, lambda: [
            reference.reconstruct_indices(reads, 28) for reads in clusters
        ])

        assert batched * CONSENSUS_SPEEDUP_FACTOR <= scalar, (
            f"batched scan ({batched * 1e3:.1f}ms) is not "
            f"{CONSENSUS_SPEEDUP_FACTOR}x faster than the per-cluster "
            f"reference ({scalar * 1e3:.0f}ms)"
        )

    def test_two_way_scan_gets_one_row_per_distinct_read(self, monkeypatch):
        """Deterministic floor for the distinct-row scan: on the
        serve-shaped unit (256 clusters at coverage 16, L=28, 1% error)
        the stacked two-way scan gets at most 40% as many rows as the
        batch has non-empty reads in its two directions. Scanning every
        copy of a read on its own row gets 100%."""
        from repro.consensus import OneWayReconstructor, TwoWayReconstructor

        scanned = []
        scan = OneWayReconstructor.scan_padded

        def spy(self, matrix, *args):
            scanned.append(matrix.shape[0])
            return scan(self, matrix, *args)

        monkeypatch.setattr(OneWayReconstructor, "scan_padded", spy)
        batch = ReadBatch.from_arrays(workload_unit(28, 256, 16, 28, 0.01))
        TwoWayReconstructor().reconstruct_batch(batch, 28)
        reads = 2 * int(np.count_nonzero(batch.lengths))
        assert len(scanned) == 1
        assert scanned[0] <= DISTINCT_ROW_SHARE * reads, (
            f"the two-way scan got {scanned[0]} rows for {reads} reads; "
            "duplicate reads are no longer sharing weighted rows"
        )

    @pytest.mark.slow
    def test_batched_iterative_refinement_beats_reference(self):
        """The batched realign-and-vote sweep must lead the frozen
        per-cluster reference by at least 5x on a quickstart-sized unit
        (and fit an absolute ceiling). The reference path is the whole
        per-cluster algorithm — per-read edit DP, Python traceback loops —
        so only a regression to scalar processing can close the gap."""
        from oracles.consensus import ReferenceIterativeReconstructor
        from repro.consensus import IterativeReconstructor

        clusters = quickstart_unit(seed=1)
        fast = IterativeReconstructor()
        # Warm-up.
        fast.reconstruct_batch(ReadBatch.from_arrays(clusters[:5]), 68)

        batched_seconds, batched = best_of(3, lambda: fast.reconstruct_batch(
            ReadBatch.from_arrays(clusters), 68
        ))

        reference = ReferenceIterativeReconstructor()
        start = time.perf_counter()
        expected = [reference.reconstruct_indices(reads, 68)
                    for reads in clusters]
        reference_seconds = time.perf_counter() - start

        for estimate, want in zip(batched, expected):
            np.testing.assert_array_equal(estimate, want)
        assert batched_seconds < REFINEMENT_BUDGET_SECONDS, (
            f"batched iterative refinement took {batched_seconds:.2f}s; "
            f"budget is {REFINEMENT_BUDGET_SECONDS:.1f}s"
        )
        assert batched_seconds * REFINEMENT_SPEEDUP_FACTOR < reference_seconds, (
            f"batched iterative ({batched_seconds * 1e3:.0f}ms) is not "
            f"{REFINEMENT_SPEEDUP_FACTOR}x faster than the per-cluster "
            f"reference ({reference_seconds * 1e3:.0f}ms)"
        )

    @pytest.mark.slow
    def test_batched_posterior_refinement_beats_reference(self):
        """Same guard for the posterior lattice: the batched
        ``(reads, positions)`` forward-backward must lead the per-read
        reference on a quickstart-sized unit. The batched side is timed
        best-of-3 (one noisy sample used to flake this guard) and the
        floor is the posterior-specific 3x — see
        ``POSTERIOR_SPEEDUP_FACTOR``."""
        from oracles.consensus import ReferencePosteriorReconstructor
        from repro.consensus import PosteriorReconstructor

        model = ErrorModel.uniform(0.06)
        clusters = quickstart_unit(seed=2)
        fast = PosteriorReconstructor(channel=model)
        # Warm-up.
        fast.reconstruct_batch(ReadBatch.from_arrays(clusters[:5]), 68)

        batched_seconds, batched = best_of(
            3, lambda: fast.reconstruct_batch_with_confidence(
                ReadBatch.from_arrays(clusters), 68
            )
        )

        reference = ReferencePosteriorReconstructor(channel=model)
        start = time.perf_counter()
        expected = [reference.reconstruct_indices(reads, 68)
                    for reads in clusters]
        reference_seconds = time.perf_counter() - start

        for (estimate, _), want in zip(batched, expected):
            np.testing.assert_array_equal(estimate, want)
        assert batched_seconds < REFINEMENT_BUDGET_SECONDS, (
            f"batched posterior refinement took {batched_seconds:.2f}s; "
            f"budget is {REFINEMENT_BUDGET_SECONDS:.1f}s"
        )
        assert batched_seconds * POSTERIOR_SPEEDUP_FACTOR < reference_seconds, (
            f"batched posterior ({batched_seconds * 1e3:.0f}ms) is not "
            f"{POSTERIOR_SPEEDUP_FACTOR}x faster than the per-read "
            f"reference ({reference_seconds * 1e3:.0f}ms)"
        )

    def test_store_decode_one_batch_call_and_beats_per_unit_reference(self):
        """The store plane is the batching boundary: decoding a many-unit
        payload must issue exactly *one* reconstructor batch call, return
        bits byte-identical to the frozen per-unit oracle loop
        (``decode_units_reference``), and lead it by at least 3x (measured
        ~6x on a 2-core x86 box). Many small units make the per-call
        overhead the reference pays 32 times the dominant cost — only a
        regression of the spanning path back to per-unit processing can
        close the gap."""
        from repro.consensus import TwoWayReconstructor

        calls = []

        class CountingTwoWay(TwoWayReconstructor):
            def reconstruct_batch(self, batch, length):
                calls.append(batch.n_clusters)
                return super().reconstruct_batch(batch, length)

        matrix = MatrixConfig(m=8, n_columns=24, nsym=4, payload_rows=6)
        store = DnaStore(PipelineConfig(matrix=matrix),
                         reconstructor=CountingTwoWay())
        rng = np.random.default_rng(11)
        n_units = 32
        bits = rng.integers(
            0, 2, n_units * store.unit_capacity_bits - 17
        ).astype(np.uint8)
        image = store.encode(bits)
        assert image.n_units == n_units
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.01), FixedCoverage(5)
        )
        batch = simulator.sequence_store(image, rng=1)
        request = ReadRequest(batch, bits.size)
        store.read(request)  # warm-up

        calls.clear()
        decoded, report = store.read(request)
        assert len(calls) == 1, (
            f"store decode issued {len(calls)} reconstructor batch calls; "
            f"the store plane must batch them into one"
        )

        # Best of 5 alternating rounds: the one-pass decode takes ~10ms, so
        # a single sample (or a burst of box noise covering several
        # back-to-back samples) can swamp the gap the floor guards.
        batched_seconds = reference_seconds = float("inf")
        for _ in range(5):
            seconds, _ = best_of(1, lambda: store.read(request))
            batched_seconds = min(batched_seconds, seconds)
            seconds, (expected, expected_report) = best_of(
                1, lambda: decode_units_reference(store, batch, bits.size)
            )
            reference_seconds = min(reference_seconds, seconds)

        np.testing.assert_array_equal(decoded, expected)
        np.testing.assert_array_equal(decoded, bits)
        assert report.clean
        assert batched_seconds < STORE_DECODE_BUDGET_SECONDS, (
            f"store decode took {batched_seconds:.2f}s; budget is "
            f"{STORE_DECODE_BUDGET_SECONDS:.1f}s"
        )
        assert batched_seconds * STORE_SPEEDUP_FACTOR < reference_seconds, (
            f"one-pass store decode ({batched_seconds * 1e3:.0f}ms) is not "
            f"{STORE_SPEEDUP_FACTOR}x faster than the per-unit reference "
            f"({reference_seconds * 1e3:.0f}ms)"
        )

    def test_store_decode_issues_exactly_one_errata_batch_call(self):
        """The RS correction plane is batched at the store boundary too:
        one spanning store decode must route every unit's codewords
        through exactly one ``ReedSolomon.decode_many`` call (no
        confidence threshold means no soft flags, so no retry wave)."""
        matrix = MatrixConfig(m=8, n_columns=24, nsym=4, payload_rows=6)
        store = DnaStore(PipelineConfig(matrix=matrix))
        rng = np.random.default_rng(19)
        n_units = 8
        bits = rng.integers(
            0, 2, n_units * store.unit_capacity_bits
        ).astype(np.uint8)
        image = store.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.02), FixedCoverage(5)
        )
        batch = simulator.sequence_store(image, rng=2)

        rs = store.pipeline._rs
        calls = []
        original = rs.decode_many

        def counting(words, erasure_table=None):
            calls.append(words.shape[0])
            return original(words, erasure_table)

        rs.decode_many = counting
        try:
            decoded, report = store.read(ReadRequest(batch, bits.size))
        finally:
            del rs.decode_many
        assert len(calls) == 1, (
            f"store decode issued {len(calls)} decode_many calls; the "
            f"errata plane must batch every unit's codewords into one"
        )
        assert calls[0] == n_units * matrix.payload_rows
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_batched_errata_beats_per_codeword_reference(self):
        """The batched errata chain must lead the frozen per-codeword
        scalar loop by at least 3x on an all-dirty multi-unit store
        (measured far higher on the development machine) while staying
        byte-identical. Every codeword carries errors, so the comparison
        times the Berlekamp-Massey/Chien/Forney chain itself, not the
        clean-syndrome fast path."""
        from repro.core.pipeline import ReceivedUnit

        matrix = MatrixConfig(m=8, n_columns=60, nsym=12, payload_rows=8)
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=matrix))
        rng = np.random.default_rng(43)
        units = []
        for _ in range(16):
            bits = rng.integers(0, 2, pipeline.capacity_bits).astype(
                np.uint8
            )
            mat = pipeline.encode(bits).matrix.copy()
            columns = rng.permutation(matrix.n_columns)
            # Three corrupted columns hit every row-codeword; two more
            # columns are lost outright (hard erasures).
            for column in columns[:3]:
                mat[:, column] ^= rng.integers(
                    1, 256, size=matrix.payload_rows
                )
            erased = [int(c) for c in columns[3:5]]
            mat[:, erased] = 0
            units.append(ReceivedUnit(
                matrix=mat, erased_columns=erased, duplicate_columns=[],
                invalid_strands=0, cell_erasures=[],
            ))

        pipeline.correct_matrix_many(units[:2])  # warm-up
        start = time.perf_counter()
        batched = pipeline.correct_matrix_many(units)
        batched_seconds = time.perf_counter() - start

        correct_matrix_loop_reference(pipeline, units[0])  # warm-up
        start = time.perf_counter()
        expected = [correct_matrix_loop_reference(pipeline, unit)
                    for unit in units]
        reference_seconds = time.perf_counter() - start

        for (got_matrix, got_report), (want_matrix, want_report) in zip(
            batched, expected
        ):
            np.testing.assert_array_equal(got_matrix, want_matrix)
            assert got_report.failed_codewords == \
                want_report.failed_codewords
            assert got_report.corrected_symbols == \
                want_report.corrected_symbols
            assert got_report.clean
            assert got_report.corrected_symbols > 0  # genuinely dirty
        assert batched_seconds * ERRATA_SPEEDUP_FACTOR \
            < reference_seconds, (
                f"batched errata decode ({batched_seconds * 1e3:.0f}ms) "
                f"is not {ERRATA_SPEEDUP_FACTOR}x faster than the "
                f"per-codeword reference "
                f"({reference_seconds * 1e3:.0f}ms)"
            )

    @pytest.mark.slow
    def test_batched_clustering_beats_string_reference(self):
        """The columnar clusterer must stay meaningfully faster than the
        frozen string-plane reference while producing identical
        assignments. The differential pool is quickstart-channel shaped
        (68-base strands, 6% errors) at reduced strand count so the
        deliberately slow reference fits the suite; the full
        quickstart-config pool (120 strands x coverage 10, ~30x measured
        on the development machine) is guarded by the absolute budget in
        the end-to-end test below."""
        from oracles.cluster import ReferenceGreedyClusterer
        from repro.cluster import BatchedGreedyClusterer
        from repro.codec.basemap import random_bases

        rng = np.random.default_rng(5)
        strands = [random_bases(68, rng) for _ in range(60)]
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.06), FixedCoverage(8)
        )
        pool = simulator.sequence_batch(strands, rng).pooled(rng=rng)
        threshold = 17
        fast = BatchedGreedyClusterer(threshold)
        fast.cluster_batch(pool.select_prefix(np.array([100])))  # warm-up

        start = time.perf_counter()
        labeled = fast.cluster_batch(pool)
        batched_seconds = time.perf_counter() - start

        reads = [pool.read_string(i) for i in range(pool.n_reads)]
        reference = ReferenceGreedyClusterer(threshold)
        start = time.perf_counter()
        expected = reference.cluster(reads)
        reference_seconds = time.perf_counter() - start

        assert labeled.n_clusters == len(expected)
        got = [
            [labeled.read_string(i) for i in range(*labeled.cluster_rows(c))]
            for c in range(labeled.n_clusters)
        ]
        assert got == [cluster.reads for cluster in expected]
        assert batched_seconds * CLUSTERING_SPEEDUP_FACTOR \
            < reference_seconds, (
                f"batched clustering ({batched_seconds * 1e3:.0f}ms) is not "
                f"{CLUSTERING_SPEEDUP_FACTOR}x faster than the string-plane "
                f"reference ({reference_seconds * 1e3:.0f}ms)"
            )

    @pytest.mark.slow
    def test_lsh_clustering_beats_batched_greedy(self):
        """The LSH-banded clusterer must lead the exact greedy scan on a
        quickstart-channel pool while recovering the same-quality
        clustering. 200 strands x coverage 6 (1200 reads) keeps the
        greedy side fast enough for the suite; the scaling benchmark
        carries the 50k-read evidence where the lead exceeds the 5x
        acceptance floor."""
        from repro.cluster import (
            BatchedGreedyClusterer, LSHClusterer, pair_precision_recall,
        )
        from repro.codec.basemap import random_bases

        rng = np.random.default_rng(17)
        strands = [random_bases(68, rng) for _ in range(200)]
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.06), FixedCoverage(6)
        )
        labeled = simulator.sequence_batch(strands, rng)
        permutation = rng.permutation(labeled.n_reads)
        truth = labeled.cluster_ids[permutation]
        pool = labeled.pooled()
        pool = type(pool)(
            pool.buffer, pool.offsets[permutation],
            pool.lengths[permutation], pool.cluster_ids,
            n_clusters=pool.n_clusters,
        )
        lsh = LSHClusterer.for_strand_length(68)
        greedy = BatchedGreedyClusterer.for_strand_length(68)
        small = pool.select_prefix(np.array([100]))
        lsh.cluster_batch(small)  # warm-up
        greedy.cluster_batch(small)

        lsh_seconds, (predicted, _) = best_of(
            3, lambda: lsh.assign(pool)
        )
        greedy_seconds, _ = best_of(3, lambda: greedy.assign(pool))

        precision, recall = pair_precision_recall(truth, predicted)
        assert precision == 1.0, "LSH merges are DP-verified; never wrong"
        assert recall > 0.95
        assert lsh_seconds * LSH_SPEEDUP_FACTOR < greedy_seconds, (
            f"LSH clustering ({lsh_seconds * 1e3:.0f}ms) is not "
            f"{LSH_SPEEDUP_FACTOR}x faster than the batched greedy scan "
            f"({greedy_seconds * 1e3:.0f}ms)"
        )

    @pytest.mark.slow
    def test_banded_kernel_beats_frozen_dp_on_pool_read_calls(
            self, monkeypatch):
        """Replay the banded-DP calls LSH clustering makes on one
        pool-workload read (MatrixConfig() strands, 6% IDS, coverage
        10: mostly stacks of under 50 pairs, a few of hundreds) through
        the live kernel and the frozen DP; the median of 3 CPU-time runs
        of the live side must be ``BANDED_KERNEL_SPEEDUP_FACTOR`` times
        faster, with equal answers."""
        import repro.cluster.lsh as lsh_module
        from oracles.cluster import banded_edit_distances_stack_reference
        from repro.cluster import LSHClusterer
        from repro.cluster.distance import banded_edit_distances_stack

        from tests.cluster.test_distance import pool_read_batch

        calls = []

        def capture(*args, **kwargs):
            calls.append((args, kwargs))
            return banded_edit_distances_stack(*args, **kwargs)

        monkeypatch.setattr(lsh_module, "banded_edit_distances_stack",
                            capture)
        LSHClusterer.for_strand_length(
            MatrixConfig().strand_length).assign(pool_read_batch())
        monkeypatch.undo()
        assert len(calls) > 20

        def replay(kernel):
            return lambda: [kernel(*args, **kwargs)
                            for args, kwargs in calls]

        for live, frozen in zip(
                replay(banded_edit_distances_stack)(),
                replay(banded_edit_distances_stack_reference)()):
            np.testing.assert_array_equal(live, frozen)
        kernel_seconds = median_cpu(3, replay(banded_edit_distances_stack))
        frozen_seconds = median_cpu(
            3, replay(banded_edit_distances_stack_reference))
        assert kernel_seconds * BANDED_KERNEL_SPEEDUP_FACTOR \
            <= frozen_seconds, (
                f"banded kernel ({kernel_seconds * 1e3:.0f}ms CPU) is not "
                f"{BANDED_KERNEL_SPEEDUP_FACTOR}x faster than the frozen DP "
                f"({frozen_seconds * 1e3:.0f}ms CPU) on one pool read's "
                f"{len(calls)} calls"
            )

    @pytest.mark.slow
    def test_unlabeled_quickstart_pool_clusters_and_decodes_within_budget(self):
        """The full quickstart-config pool (120 strands x coverage 10)
        must cluster within the absolute budget, and the end-to-end
        unlabeled decode — ``sequence_store(labeled=False)`` -> cluster
        -> ``DnaStore.read`` plumbing — must round-trip the payload
        byte-identically."""
        matrix = MatrixConfig(m=8, n_columns=120, nsym=22, payload_rows=16)
        store = DnaStore(PipelineConfig(matrix=matrix))
        rng = np.random.default_rng(13)
        bits = rng.integers(0, 2, store.unit_capacity_bits).astype(np.uint8)
        image = store.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.06), FixedCoverage(10)
        )
        pool = simulator.sequence_store(image, rng=1, labeled=False)
        assert pool.n_reads == 1200

        start = time.perf_counter()
        decoded, report = store.read(
            ReadRequest(pool, bits.size, pool=True)
        )
        elapsed = time.perf_counter() - start

        assert report.clean
        np.testing.assert_array_equal(decoded, bits)
        assert elapsed < CLUSTERING_BUDGET_SECONDS, (
            f"unlabeled-pool decode took {elapsed:.2f}s; the clustering "
            f"hot path has regressed past the "
            f"{CLUSTERING_BUDGET_SECONDS:.1f}s budget"
        )

    def test_channel_stage_within_budget_and_beats_per_read_path(self):
        """The quickstart-config channel stage must stay vectorized: one
        batched engine call both fits an absolute budget and leads the
        per-read ``apply_many`` reference by at least 5x (measured ~12x
        on the development machine)."""
        from repro.codec.basemap import random_bases

        rng = np.random.default_rng(3)
        strands = [random_bases(68, rng) for _ in range(120)]
        model = ErrorModel.uniform(0.06)
        simulator = SequencingSimulator(model, FixedCoverage(10))
        simulator.sequence_batch(strands, rng=0)  # warm-up

        start = time.perf_counter()
        rounds = 5
        for _ in range(rounds):
            batch = simulator.sequence_batch(strands, rng=1)
        batched = (time.perf_counter() - start) / rounds
        assert batch.n_reads == 1200

        reference_rng = np.random.default_rng(1)
        start = time.perf_counter()
        for strand in strands:
            model.apply_many(strand, 10, reference_rng)
        per_read = time.perf_counter() - start

        assert batched < CHANNEL_BUDGET_SECONDS, (
            f"channel stage took {batched:.3f}s; the batched engine has "
            f"regressed past the {CHANNEL_BUDGET_SECONDS:.1f}s budget"
        )
        assert batched * 5 < per_read, (
            f"batched channel ({batched * 1e3:.1f}ms) is not 5x faster "
            f"than the per-read path ({per_read * 1e3:.1f}ms)"
        )


class TestTracingBudget:
    """The telemetry layer's contract with the hot path: with the
    default ``NullTracer`` the decode output is byte-identical to an
    instrumented run and the traced call sites cost a vanishing
    fraction of decode wall time."""

    def quickstart_store(self):
        matrix = MatrixConfig(m=8, n_columns=120, nsym=22, payload_rows=16)
        store = DnaStore(PipelineConfig(matrix=matrix))
        rng = np.random.default_rng(29)
        bits = rng.integers(0, 2, store.unit_capacity_bits).astype(np.uint8)
        image = store.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.06), FixedCoverage(10)
        )
        return store, simulator.sequence_store(image, rng=8), bits

    def test_decode_byte_identical_with_tracing_on_and_off(self):
        from repro.observability import Tracer, use_tracer

        store, batch, bits = self.quickstart_store()
        request = ReadRequest(batch, bits.size)
        off_decoded, off_report = store.read(request)
        tracer = Tracer()
        with use_tracer(tracer):
            on_decoded, on_report = store.read(request)
        np.testing.assert_array_equal(on_decoded, off_decoded)
        np.testing.assert_array_equal(off_decoded, bits)
        assert on_report.clean == off_report.clean
        assert on_report.total_failed_codewords == \
            off_report.total_failed_codewords
        assert on_report.total_erased_columns == \
            off_report.total_erased_columns
        assert tracer.manifests  # the traced run left its evidence

    def test_null_tracer_overhead_within_budget(self):
        """Estimate the off-path cost directly: (number of span call
        sites one decode crosses, from a recording run) x (measured
        cost of one null get_tracer()+span round trip). The product
        must stay under 5% of the decode's own wall time — comparing
        two noisy end-to-end timings would flake long before the null
        path ever grew that expensive."""
        from repro.observability import Tracer, use_tracer
        from repro.observability.trace import get_tracer

        store, batch, bits = self.quickstart_store()
        request = ReadRequest(batch, bits.size)
        store.read(request)  # warm-up
        decode_seconds, _ = best_of(3, lambda: store.read(request))

        tracer = Tracer()
        with use_tracer(tracer):
            store.read(request)
        span_calls = sum(
            entry["calls"] for entry in tracer.stage_totals().values()
        )
        assert span_calls >= 5  # decode/receive/consensus/correct/rs

        rounds = 20_000
        start = time.perf_counter()
        for _ in range(rounds):
            with get_tracer().span("probe", n=1):
                pass
        per_site = (time.perf_counter() - start) / rounds

        overhead = per_site * span_calls
        assert overhead < TRACING_OVERHEAD_BUDGET * decode_seconds, (
            f"null tracing path costs {overhead * 1e6:.1f}us across "
            f"{span_calls} call sites — over "
            f"{TRACING_OVERHEAD_BUDGET:.0%} of the "
            f"{decode_seconds * 1e3:.1f}ms decode"
        )


class TestServiceTickBudget:
    """The serving plane's amortization contract: one tick = at most one
    consensus batch call and one RS errata call, however many requests
    drain — and a warm-cache tick makes none at all."""

    N_OBJECTS = 8

    def build_service(self, calls):
        from repro.consensus import TwoWayReconstructor
        from repro.service import StoreService

        class CountingTwoWay(TwoWayReconstructor):
            def reconstruct_batch(self, batch, length):
                calls.append(batch.n_clusters)
                return super().reconstruct_batch(batch, length)

        matrix = MatrixConfig(m=8, n_columns=24, nsym=4, payload_rows=6)
        store = DnaStore(PipelineConfig(matrix=matrix),
                         reconstructor=CountingTwoWay())
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.01), FixedCoverage(5)
        )
        rng = np.random.default_rng(60)
        service = StoreService(store, cache_capacity=256)
        expected = {}
        for k in range(self.N_OBJECTS):
            bits = rng.integers(0, 2, store.unit_capacity_bits,
                                dtype=np.uint8)
            image = store.encode(bits)
            batch = simulator.sequence_store(image, rng=7000 + k)
            service.put(f"obj{k}", batch, bits.size)
            expected[f"obj{k}"] = bits
        return store, service, expected, matrix

    def test_tick_issues_one_consensus_and_one_errata_pass(self):
        """N>=8 concurrent object reads, one tick: exactly ONE spanning
        reconstruct_batch call and ONE ReedSolomon.decode_many call."""
        consensus_calls = []
        store, service, expected, matrix = self.build_service(
            consensus_calls
        )
        rs = store.pipeline._rs
        rs_calls = []
        original = rs.decode_many

        def counting(words, erasure_table=None):
            rs_calls.append(words.shape[0])
            return original(words, erasure_table)

        for oid in expected:
            service.submit(oid)
        consensus_calls.clear()
        rs.decode_many = counting
        try:
            results = service.tick()
        finally:
            del rs.decode_many

        assert len(results) == self.N_OBJECTS
        assert len(consensus_calls) == 1, (
            f"service tick issued {len(consensus_calls)} reconstructor "
            f"batch calls for {self.N_OBJECTS} requests; the plane must "
            f"coalesce them into one"
        )
        assert len(rs_calls) == 1, (
            f"service tick issued {len(rs_calls)} decode_many calls; "
            f"the errata pass must be shared across all requests"
        )
        assert rs_calls[0] == self.N_OBJECTS * matrix.payload_rows
        for result in results:
            assert result.report.clean
            np.testing.assert_array_equal(
                result.bits, expected[result.object_id]
            )

    def test_warm_cache_tick_makes_zero_pipeline_calls(self):
        """Repeat reads of cached objects bypass the pipeline entirely:
        zero reconstruct_batch calls, zero errata calls."""
        consensus_calls = []
        store, service, expected, _ = self.build_service(consensus_calls)
        for oid in expected:
            service.submit(oid)
        service.tick()  # cold tick fills the decoded-unit cache

        rs = store.pipeline._rs
        rs_calls = []
        original = rs.decode_many

        def counting(words, erasure_table=None):
            rs_calls.append(words.shape[0])
            return original(words, erasure_table)

        for oid in expected:
            service.submit(oid)
        consensus_calls.clear()
        rs.decode_many = counting
        try:
            results = service.tick()
        finally:
            del rs.decode_many

        assert consensus_calls == []
        assert rs_calls == []
        assert all(result.cache_hit for result in results)
        for result in results:
            np.testing.assert_array_equal(
                result.bits, expected[result.object_id]
            )
