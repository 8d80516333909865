"""The unified read surface: ReadRequest/ReadResult and coalescing.

Pins the read API's contract:

* ``read`` answers one request with a ``ReadResult`` that unpacks as
  ``(bits, report)``, and malformed requests are rejected;
* ``read_many`` coalesces heterogeneous requests (labeled, pooled,
  ranked, thresholded) and each answer is byte-identical to serving the
  request alone;
* each call leaves one ``store.read``/``store.read_many`` manifest.
"""

import numpy as np
import pytest

from oracles.core import decode_units_reference
from repro.channel import ErrorModel, FixedCoverage, SequencingSimulator
from repro.cluster import BatchedGreedyClusterer
from repro.core import (
    MatrixConfig,
    PipelineConfig,
    ReadRequest,
    ReadResult,
)
from repro.core.store import DnaStore
from repro.observability import Tracer, use_tracer

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
    def test_read_emits_store_read_manifest(self, fixture_store):
        store = fixture_store
        reads, bits, _ = sequence(store, seed=40)
        tracer = Tracer()
        with use_tracer(tracer):
            store.read(ReadRequest(reads, bits.size))
        assert [m.name for m in tracer.manifests] == ["store.read"]
        assert "store.read" in tracer.manifests[0].stages

    def test_read_many_emits_one_manifest(self, fixture_store):
        store = fixture_store
        reads, bits, _ = sequence(store, seed=41)
        tracer = Tracer()
        with use_tracer(tracer):
            store.read_many([ReadRequest(reads, bits.size)] * 2)
        assert [m.name for m in tracer.manifests] == ["store.read_many"]


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
        """The serving plane decodes through the same checks: a bad
        ranking in its catalog raises the typed error before consensus,
        and the tick accounts for the drained ticket."""
        from repro.service import StoreService

        store = DnaStore(PipelineConfig(matrix=MATRIX))
        reads, bits, _ = sequence(store, seed=32)
        service = StoreService(store)
        service.put("bad", reads, bits.size,
                    ranking=np.zeros(bits.size, dtype=np.int64))
        ticket = service.submit("bad")
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(ValueError, match="ranking"):
                service.tick()
        assert "consensus.reconstruct" not in tracer.stage_totals()
        [event] = service.events.records("error")
        assert event["request_id"] == ticket
