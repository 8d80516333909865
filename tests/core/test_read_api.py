"""The unified read surface: ReadRequest/ReadResult and coalescing.

Pins the read API's contract:

* ``read`` answers one request with a ``ReadResult`` that unpacks as
  ``(bits, report)``, and malformed requests are rejected;
* ``read_many`` coalesces heterogeneous requests (labeled, pooled,
  ranked, thresholded) and each answer is byte-identical to serving the
  request alone;
* each call records one ``store.read``/``store.read_many`` span.
"""

import numpy as np
import pytest

from oracles.core import decode_units_reference
from repro.channel import (
    ErrorModel,
    FixedCoverage,
    ReadBatch,
    SequencingSimulator,
)
from repro.cluster import BatchedGreedyClusterer
from repro.core import (
    MatrixConfig,
    PipelineConfig,
    ReadRequest,
    ReadResult,
)
from repro.core.store import DnaStore
from repro.observability import Tracer, build_manifest, use_tracer

MATRIX = MatrixConfig(m=8, n_columns=24, nsym=4, payload_rows=6)


@pytest.fixture(scope="module")
def fixture_store():
    return DnaStore(PipelineConfig(matrix=MATRIX))


def sequence(store, seed, units=2, rate=0.01, labeled=True, ranking=False):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, units * store.unit_capacity_bits - 3,
                        dtype=np.uint8)
    perm = rng.permutation(bits.size) if ranking else None
    image = store.encode(bits, ranking=perm)
    simulator = SequencingSimulator(ErrorModel.uniform(rate),
                                    FixedCoverage(5))
    reads = simulator.sequence_store(image, rng=seed, labeled=labeled)
    return reads, bits, perm


def unit(reads, u):
    """Unit ``u``'s clusters of a spanning batch, as a view."""
    return reads.select_clusters(u * MATRIX.n_columns,
                                 (u + 1) * MATRIX.n_columns)


def with_symbol(reads, symbol):
    """A copy of ``reads`` whose middle non-empty read starts with
    ``symbol``."""
    buffer = reads.buffer.copy()
    nonempty = np.flatnonzero(reads.lengths)
    buffer[reads.offsets[nonempty[nonempty.size // 2]]] = symbol
    return ReadBatch(buffer, reads.offsets, reads.lengths,
                     reads.cluster_ids, reads.n_clusters,
                     reads.source_indices)


class TestReadResult:
    def test_unpacks_like_the_legacy_tuple(self, fixture_store):
        store = fixture_store
        reads, bits, _ = sequence(store, seed=1)
        result = store.read(ReadRequest(reads, bits.size))
        assert isinstance(result, ReadResult)
        decoded, report = result
        assert decoded is result.bits
        assert report is result.report
        assert result.clean == report.clean
        assert result.cache_hit is False

    def test_object_id_echoed(self, fixture_store):
        store = fixture_store
        reads, bits, _ = sequence(store, seed=2)
        result = store.read(
            ReadRequest(reads, bits.size, object_id="file-7")
        )
        assert result.object_id == "file-7"

    def test_read_many_empty_is_empty(self, fixture_store):
        assert fixture_store.read_many([]) == []


class TestDeprecatedWrappers:
    """What the removed ``decode``/``decode_pool`` front doors offered,
    served through ``read``."""

    def test_ranking_and_threshold_parity(self, fixture_store):
        store = fixture_store
        reads, bits, perm = sequence(store, seed=6, ranking=True)
        new = store.read(ReadRequest(
            reads, bits.size, ranking=perm, confidence_threshold=None,
        ))
        want_bits, want_report = decode_units_reference(
            store, reads, bits.size, ranking=perm
        )
        np.testing.assert_array_equal(new.bits, want_bits)
        assert new.report.unit_reports == want_report.unit_reports
        np.testing.assert_array_equal(new.bits, bits)

    def test_wrong_pool_count_still_rejected(self, fixture_store):
        store = fixture_store
        pool, bits, _ = sequence(store, seed=7, labeled=False)
        with pytest.raises(ValueError, match="unit pools"):
            store.read(ReadRequest(
                pool, 3 * store.unit_capacity_bits, pool=True
            ))

    def test_pooled_request_requires_a_batch(self, fixture_store):
        store = fixture_store
        with pytest.raises(TypeError, match="ReadBatch"):
            store.read(ReadRequest([["ACGT"]], 8, pool=True))


class TestCoalescing:
    def test_read_many_matches_individual_reads(self, fixture_store):
        """The differential bar for the coalescing engine: a mixed
        request list answers byte-identically to one-at-a-time serving."""
        store = fixture_store
        labeled1, bits1, _ = sequence(store, seed=10)
        labeled2, bits2, perm2 = sequence(store, seed=11, ranking=True)
        pool1, bits3, _ = sequence(store, seed=12, labeled=False)
        pool2, bits4, _ = sequence(store, seed=13, labeled=False, units=1)
        ref, bits5, _ = sequence(store, seed=14, units=1)
        requests = [
            ReadRequest(labeled1, bits1.size),
            ReadRequest(labeled2, bits2.size, ranking=perm2),
            ReadRequest(pool1, bits3.size, pool=True),
            ReadRequest(pool2, bits4.size, pool=True),
            ReadRequest(ref, bits5.size),
        ]
        coalesced = store.read_many(requests)
        solo = [store.read(request) for request in requests]
        for together, alone in zip(coalesced, solo):
            np.testing.assert_array_equal(together.bits, alone.bits)
        for result, bits in zip(
            coalesced, (bits1, bits2, bits3, bits4, bits5)
        ):
            assert result.clean
            np.testing.assert_array_equal(result.bits, bits)

    def test_read_many_one_consensus_pass_for_labeled(self, fixture_store):
        from repro.consensus import TwoWayReconstructor

        calls = []

        class CountingTwoWay(TwoWayReconstructor):
            def reconstruct_batch(self, batch, length):
                calls.append(batch.n_clusters)
                return super().reconstruct_batch(batch, length)

        store = DnaStore(PipelineConfig(matrix=MATRIX),
                         reconstructor=CountingTwoWay())
        payloads = [sequence(store, seed=20 + k, units=1)
                    for k in range(5)]
        calls.clear()
        results = store.read_many([
            ReadRequest(reads, bits.size) for reads, bits, _ in payloads
        ])
        assert len(calls) == 1
        for result, (_, bits, _) in zip(results, payloads):
            np.testing.assert_array_equal(result.bits, bits)

    def test_distinct_thresholds_group_into_separate_passes(self):
        """Confidence thresholds are a per-receive-pass knob: two
        distinct values mean two consensus passes, not a wrong merge."""
        from repro.consensus import PosteriorReconstructor

        calls = []

        class CountingPosterior(PosteriorReconstructor):
            def reconstruct_batch_with_confidence(self, batch, length):
                calls.append(batch.n_clusters)
                return super().reconstruct_batch_with_confidence(
                    batch, length
                )

        store = DnaStore(PipelineConfig(matrix=MATRIX),
                         reconstructor=CountingPosterior())
        reads1, bits1, _ = sequence(store, seed=30, units=1)
        reads2, bits2, _ = sequence(store, seed=31, units=1)
        calls.clear()
        results = store.read_many([
            ReadRequest(reads1, bits1.size, confidence_threshold=0.6),
            ReadRequest(reads2, bits2.size, confidence_threshold=0.9),
        ])
        assert len(calls) == 2
        np.testing.assert_array_equal(results[0].bits, bits1)
        np.testing.assert_array_equal(results[1].bits, bits2)


class TestSpanAndManifestCompatibility:
    """``read`` and ``read_many`` keep their span names, and a manifest
    exists only when the caller builds one."""

    def test_read_records_store_read_span(self, fixture_store):
        store = fixture_store
        reads, bits, _ = sequence(store, seed=40)
        tracer = Tracer()
        with use_tracer(tracer):
            store.read(ReadRequest(reads, bits.size))
        stages = tracer.stage_totals()
        assert stages["store.read"]["calls"] == 1
        assert "store.read_many" not in stages
        assert not hasattr(tracer, "manifests")
        manifest = build_manifest(tracer, "store.read",
                                  config=store.pipeline.config)
        assert manifest.name == "store.read"
        assert "store.read" in manifest.stages

    def test_read_many_records_one_span(self, fixture_store):
        store = fixture_store
        reads, bits, _ = sequence(store, seed=41)
        tracer = Tracer()
        with use_tracer(tracer):
            store.read_many([ReadRequest(reads, bits.size)] * 2)
        stages = tracer.stage_totals()
        assert stages["store.read_many"]["calls"] == 1
        assert "store.read" not in stages
        assert tracer.find("store.read_many").attributes["n_requests"] == 2


class TestPooledCoalescingDetail:
    def test_shared_default_clusterer_single_cluster_pools_call(self):
        """Pooled requests without an explicit clusterer share one
        default and one ``cluster_pools`` call."""
        store = DnaStore(PipelineConfig(matrix=MATRIX))
        pool1, bits1, _ = sequence(store, seed=50, labeled=False, units=1)
        pool2, bits2, _ = sequence(store, seed=51, labeled=False, units=1)
        tracer = Tracer()
        with use_tracer(tracer):
            results = store.read_many([
                ReadRequest(pool1, bits1.size, pool=True),
                ReadRequest(pool2, bits2.size, pool=True),
            ])
        assert tracer.stage_totals()["cluster.pools"]["calls"] == 1
        np.testing.assert_array_equal(results[0].bits, bits1)
        np.testing.assert_array_equal(results[1].bits, bits2)

    def test_explicit_clusterer_matches_default(self):
        store = DnaStore(PipelineConfig(matrix=MATRIX))
        pool, bits, _ = sequence(store, seed=52, labeled=False)
        clusterer = BatchedGreedyClusterer.for_strand_length(
            store.pipeline.matrix_config.strand_length
        )
        explicit = store.read(
            ReadRequest(pool, bits.size, pool=True, clusterer=clusterer)
        )
        default = store.read(ReadRequest(pool, bits.size, pool=True))
        np.testing.assert_array_equal(explicit.bits, default.bits)


class TestRequestValidation:
    """Malformed requests fail with a typed error naming the field, and
    before any layer runs: a recording tracer sees no consensus span,
    even when the bad request is coalesced behind a good one."""

    @pytest.mark.parametrize("make,error,field", [
        (lambda reads, n: ReadRequest(reads, float(n)), TypeError,
         "n_data_bits"),
        (lambda reads, n: ReadRequest(reads, True), TypeError,
         "n_data_bits"),
        (lambda reads, n: ReadRequest(reads, -1), ValueError,
         "n_data_bits"),
        (lambda reads, n: ReadRequest(None, n), TypeError, "reads"),
        (lambda reads, n: ReadRequest(reads, n, ranking=np.arange(n - 1)),
         ValueError, "ranking"),
        (lambda reads, n: ReadRequest(reads, n,
                                      ranking=np.zeros(n, dtype=np.int64)),
         ValueError, "ranking"),
        (lambda reads, n: ReadRequest(reads, n, ranking=np.arange(n) + 1),
         ValueError, "ranking"),
        (lambda reads, n: ReadRequest(reads, n,
                                      ranking=np.arange(n, dtype=float)),
         ValueError, "ranking"),
    ], ids=["float_bits", "bool_bits", "negative_bits", "reads_none",
            "short_ranking", "all_zero_ranking", "ranking_out_of_range",
            "float_ranking"])
    def test_rejected_before_any_layer_runs(self, fixture_store, make,
                                            error, field):
        store = fixture_store
        reads, bits, _ = sequence(store, seed=30)
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(error, match=field):
                store.read(make(reads, bits.size))
            with pytest.raises(error, match=field):
                store.read_many([ReadRequest(reads, bits.size),
                                 make(reads, bits.size)])
        assert "consensus.reconstruct" not in tracer.stage_totals()

    @pytest.mark.parametrize("make_bad", [
        lambda reads: reads.select_clusters(0, MATRIX.n_columns),
        lambda reads: ReadBatch.concat([reads, unit(reads, 0)]),
    ], ids=["short_spanning_batch", "long_spanning_batch"])
    def test_reads_form_rejected_before_any_group_runs(
        self, fixture_store, make_bad
    ):
        """Reads that do not cover the request's units are rejected up
        front, also when they sit in a later threshold group than a good
        request: no group's consensus runs first."""
        store = fixture_store
        reads, bits, _ = sequence(store, seed=36)
        bad = ReadRequest(make_bad(reads), bits.size,
                          confidence_threshold=0.5)
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(ValueError, match="reads"):
                store.read(bad)
            with pytest.raises(ValueError, match="reads"):
                store.read_many([ReadRequest(reads, bits.size), bad])
        assert "consensus.reconstruct" not in tracer.stage_totals()

    def test_numpy_integer_bits_and_valid_ranking_accepted(
        self, fixture_store
    ):
        store = fixture_store
        reads, bits, perm = sequence(store, seed=31, ranking=True)
        result = store.read(ReadRequest(reads, np.int32(bits.size),
                                        ranking=list(perm)))
        assert result.clean
        np.testing.assert_array_equal(result.bits, bits)

    def test_service_requests_pass_the_same_checks(self):
        """The serving plane registers objects through the same check: a
        bad ranking raises the typed error at ``put``, before any layer
        runs, and never reaches a tick."""
        from repro.service import StoreService

        store = DnaStore(PipelineConfig(matrix=MATRIX))
        reads, bits, _ = sequence(store, seed=32)
        service = StoreService(store)
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(ValueError, match="ranking"):
                service.put("bad", reads, bits.size,
                            ranking=np.zeros(bits.size, dtype=np.int64))
        assert "consensus.reconstruct" not in tracer.stage_totals()
        with pytest.raises(KeyError):
            service.submit("bad")
        assert service.events.records("error") == []

    def test_unit_list_rejected_before_any_group_runs(self, fixture_store):
        """Labeled reads come as one spanning batch: a list of per-unit
        batches raises a TypeError naming ``ReadRequest.reads`` up front,
        alone and behind a good request in another threshold group, with
        no consensus span recorded."""
        store = fixture_store
        reads, bits, _ = sequence(store, seed=37)
        bad = ReadRequest([unit(reads, 0), unit(reads, 1)], bits.size,
                          confidence_threshold=0.5)
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(TypeError, match=r"ReadRequest\.reads"):
                store.read(bad)
            with pytest.raises(TypeError, match=r"ReadRequest\.reads"):
                store.read_many([ReadRequest(reads, bits.size), bad])
        assert "consensus.reconstruct" not in tracer.stage_totals()

    @pytest.mark.parametrize("make_reads,pool", [
        (lambda reads: with_symbol(reads, 7), False),
        (lambda reads: ReadBatch.concat(
            [unit(reads, 0), with_symbol(unit(reads, 1), 4)]), False),
        (lambda reads: ReadBatch.concat([
            unit(reads, 0),
            ReadBatch.from_arrays(
                [[np.array([0, 1, 9], np.uint8)]]
                + [unit(reads, 1).reads_of(c)
                   for c in range(1, MATRIX.n_columns)]
            ),
        ]), False),
        (lambda reads: with_symbol(
            reads.pooled(np.array([0, 1, 2]) * MATRIX.n_columns), 255),
         True),
    ], ids=["spanning_batch", "unit_batch", "array_cluster", "pool"])
    def test_out_of_alphabet_read_rejected_before_any_group_runs(
        self, fixture_store, make_reads, pool
    ):
        """A base symbol outside ACGT fails the check with a ValueError
        naming ``ReadRequest.reads``, labeled or pooled: alone, and
        behind a good request in another threshold group, before any
        consensus runs. It used to pass the check and raise inside the
        consensus layer, taking the good request down with it."""
        store = fixture_store
        reads, bits, _ = sequence(store, seed=40)
        bad = ReadRequest(make_reads(reads), bits.size, pool=pool,
                          confidence_threshold=0.5)
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(ValueError, match=r"ReadRequest\.reads"):
                store.read(bad)
            with pytest.raises(ValueError, match=r"ReadRequest\.reads"):
                store.read_many([ReadRequest(reads, bits.size), bad])
        assert "consensus.reconstruct" not in tracer.stage_totals()

    def test_alphabet_check_reads_only_the_requests_bases(self,
                                                          fixture_store):
        """A sub-batch view is checked over its own reads: a bad symbol
        elsewhere in the buffer it shares does not reject it."""
        store = fixture_store
        reads, bits, _ = sequence(store, seed=41)
        poisoned = ReadBatch.concat([reads,
                                     with_symbol(unit(reads, 0), 7)])
        n_columns = MATRIX.n_columns
        view = poisoned.select_clusters(0, 2 * n_columns)
        assert view.buffer is poisoned.buffer
        result = store.read(ReadRequest(view, bits.size))
        assert result.clean
        np.testing.assert_array_equal(result.bits, bits)
        with pytest.raises(ValueError, match=r"ReadRequest\.reads"):
            store.check(ReadRequest(
                poisoned.select_clusters(n_columns, 3 * n_columns),
                bits.size,
            ))
        # Reads as long in total as their buffer, yet not filling it: a
        # repeat of read 0 leaves a bad tail that no read covers.
        extra = int(reads.lengths[0])
        overlapping = ReadBatch(
            np.concatenate([reads.buffer[:reads.total_bases],
                            np.full(extra, 7, dtype=np.uint8)]),
            np.concatenate([[reads.offsets[0]], reads.offsets]),
            np.concatenate([[extra], reads.lengths]),
            np.concatenate([[0], reads.cluster_ids]),
            reads.n_clusters,
        )
        assert extra and overlapping.buffer.size == overlapping.total_bases
        store.check(ReadRequest(overlapping, bits.size))

    @pytest.mark.parametrize("make_reads", [
        lambda reads: 5,
        lambda reads: [unit(reads, 0), unit(reads, 1)],
        lambda reads: (unit(reads, 0), unit(reads, 1)),
        lambda reads: [unit(reads, 0), 5],
        lambda reads: [[reads.read_string(i)
                        for i in range(*reads.cluster_rows(c))]
                       for c in range(reads.n_clusters)],
    ], ids=["number", "unit_batch_list", "unit_batch_tuple",
            "bad_unit_entry", "string_lists"])
    def test_reads_of_the_wrong_form_are_type_errors(self, fixture_store,
                                                     make_reads):
        """Only one ReadBatch is accepted; the message names the field
        and the type it got."""
        store = fixture_store
        reads, bits, _ = sequence(store, seed=38)
        bad = make_reads(reads)
        with pytest.raises(TypeError, match=r"ReadRequest\.reads must be "
                                            rf"one ReadBatch, got "
                                            rf"{type(bad).__name__}"):
            store.check(ReadRequest(bad, bits.size))


class TestThresholdRange:
    """A request's ``confidence_threshold`` is ``None`` or a real number
    in [0, 1]. Past 1 every payload cell is flagged and the soft
    erasures fill the RS budget; ``nan`` silently flags nothing. Both are
    rejected before any layer runs, alone and behind a good request."""

    @pytest.mark.parametrize("threshold", [-1.0, 2.0, float("inf"),
                                           float("nan")])
    def test_out_of_range_rejected(self, fixture_store, threshold):
        store = fixture_store
        reads, bits, _ = sequence(store, seed=33)
        bad = ReadRequest(reads, bits.size, confidence_threshold=threshold)
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(ValueError, match="confidence_threshold"):
                store.read(bad)
            with pytest.raises(ValueError, match="confidence_threshold"):
                store.read_many([ReadRequest(reads, bits.size), bad])
        assert "consensus.reconstruct" not in tracer.stage_totals()

    @pytest.mark.parametrize("threshold", [True, "0.5"])
    def test_non_real_rejected(self, fixture_store, threshold):
        store = fixture_store
        reads, bits, _ = sequence(store, seed=34)
        with pytest.raises(TypeError, match="confidence_threshold"):
            store.read(ReadRequest(reads, bits.size,
                                   confidence_threshold=threshold))

    @pytest.mark.parametrize("threshold", [None, 0.0, 0.5, 1.0])
    def test_in_range_accepted(self, fixture_store, threshold):
        store = fixture_store
        reads, bits, _ = sequence(store, seed=35)
        result = store.read(ReadRequest(reads, bits.size,
                                        confidence_threshold=threshold))
        assert result.clean
        np.testing.assert_array_equal(result.bits, bits)
