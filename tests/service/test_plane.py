"""StoreService: coalescing, dedup, cache residency and invalidation.

The serving plane's contract: a tick is at most one consensus pass and
one RS errata pass however many tickets drain; duplicate requests for
one object decode once; warm-cache reads perform zero pipeline work;
re-putting an object (a store re-encode) invalidates its cached units.
"""

import numpy as np
import pytest

from repro.channel import ErrorModel, FixedCoverage, SequencingSimulator
from repro.consensus import TwoWayReconstructor
from repro.core import MatrixConfig, PipelineConfig
from repro.core.store import DnaStore
from repro.observability import Tracer, use_tracer
from repro.service import StoreService

MATRIX = MatrixConfig(m=8, n_columns=24, nsym=4, payload_rows=6)


class CountingTwoWay(TwoWayReconstructor):
    """Reconstructor that records every consensus batch call."""

    calls: list = []

    def reconstruct_batch(self, batch, length):
        CountingTwoWay.calls.append(batch.n_clusters)
        return super().reconstruct_batch(batch, length)


def make_store():
    CountingTwoWay.calls = []
    return DnaStore(PipelineConfig(matrix=MATRIX),
                    reconstructor=CountingTwoWay())


def make_objects(store, n_objects, units=1, seed=0, labeled=True):
    """Encode + sequence ``n_objects`` payloads; returns
    ``{object_id: (reads, bits)}``."""
    rng = np.random.default_rng(seed)
    simulator = SequencingSimulator(ErrorModel.uniform(0.01),
                                    FixedCoverage(5))
    objects = {}
    for k in range(n_objects):
        bits = rng.integers(
            0, 2, units * store.unit_capacity_bits - (3 if units > 1 else 0),
            dtype=np.uint8,
        )
        image = store.encode(bits)
        reads = simulator.sequence_store(image, rng=1000 + k,
                                         labeled=labeled)
        objects[f"obj{k}"] = (reads, bits)
    return objects


@pytest.fixture
def served():
    """A store + service + 6 registered single-unit objects."""
    store = make_store()
    objects = make_objects(store, 6)
    service = StoreService(store, cache_capacity=64)
    for oid, (reads, bits) in objects.items():
        service.put(oid, reads, bits.size)
    return store, service, objects


class TestTickBasics:
    def test_empty_tick_returns_empty(self, served):
        _, service, _ = served
        assert service.tick() == []
        assert CountingTwoWay.calls == []

    def test_single_request_round_trips(self, served):
        _, service, objects = served
        service.submit("obj2")
        results = service.tick()
        assert len(results) == 1
        result = results[0]
        assert result.object_id == "obj2"
        assert result.clean and not result.cache_hit
        assert result.seconds > 0.0
        np.testing.assert_array_equal(result.bits, objects["obj2"][1])

    def test_unknown_object_rejected_at_submit(self, served):
        _, service, _ = served
        with pytest.raises(KeyError, match="put"):
            service.submit("nope")

    def test_tick_answers_in_submission_order(self, served):
        _, service, objects = served
        order = ["obj3", "obj0", "obj5", "obj1"]
        for oid in order:
            service.submit(oid)
        results = service.tick()
        assert [r.object_id for r in results] == order
        for result in results:
            np.testing.assert_array_equal(
                result.bits, objects[result.object_id][1]
            )

    def test_batch_window_drains_incrementally(self, served):
        _, service, _ = served
        service.batch_window = 2
        for oid in ("obj0", "obj1", "obj2"):
            service.submit(oid)
        first = service.tick()
        assert [r.object_id for r in first] == ["obj0", "obj1"]
        assert service.queue_depth == 1
        second = service.tick()
        assert [r.object_id for r in second] == ["obj2"]
        assert service.queue_depth == 0

    def test_bad_batch_window_rejected(self, served):
        store, _, _ = served
        with pytest.raises(ValueError, match="positive"):
            StoreService(store, batch_window=0)


class TestCoalescing:
    def test_one_consensus_pass_per_tick(self, served):
        """Six distinct objects, one tick, ONE reconstructor batch call."""
        _, service, objects = served
        for oid in objects:
            service.submit(oid)
        CountingTwoWay.calls = []
        results = service.tick()
        assert len(CountingTwoWay.calls) == 1
        assert len(results) == len(objects)
        assert all(r.clean for r in results)

    def test_duplicates_decode_once_answer_twice(self, served):
        _, service, objects = served
        service.submit("obj4")
        service.submit("obj4")
        CountingTwoWay.calls = []
        results = service.tick()
        assert len(results) == 2
        assert len(CountingTwoWay.calls) == 1
        # One decode's clusters only: a single object's worth.
        assert CountingTwoWay.calls[0] <= MATRIX.n_columns
        for result in results:
            np.testing.assert_array_equal(result.bits, objects["obj4"][1])


class TestCache:
    def test_warm_repeat_bypasses_pipeline_entirely(self, served):
        """The acceptance bar: a warm-cache tick makes ZERO
        reconstruct_batch calls (and zero RS errata calls)."""
        store, service, objects = served
        for oid in objects:
            service.submit(oid)
        service.tick()

        rs = store.pipeline._rs
        rs_calls = []
        original = rs.decode_many

        def counting(words, erasure_table=None):
            rs_calls.append(words.shape[0])
            return original(words, erasure_table)

        CountingTwoWay.calls = []
        rs.decode_many = counting
        try:
            for oid in objects:
                service.submit(oid)
            results = service.tick()
        finally:
            del rs.decode_many
        assert CountingTwoWay.calls == []
        assert rs_calls == []
        assert all(r.cache_hit for r in results)
        for result in results:
            np.testing.assert_array_equal(
                result.bits, objects[result.object_id][1]
            )

    def test_cache_capacity_zero_always_decodes(self, served):
        store, _, objects = served
        service = StoreService(store, cache_capacity=0)
        for oid, (reads, bits) in objects.items():
            service.put(oid, reads, bits.size)
        service.submit("obj0")
        service.tick()
        service.submit("obj0")
        CountingTwoWay.calls = []
        results = service.tick()
        assert len(CountingTwoWay.calls) == 1
        assert not results[0].cache_hit

    def test_reput_invalidates_and_serves_new_content(self, served):
        """Re-encoding an object must not serve stale cached bits."""
        store, service, objects = served
        service.submit("obj1")
        assert not service.tick()[0].cache_hit  # now cached

        replacement = make_objects(store, 1, seed=99)["obj0"]
        new_reads, new_bits = replacement
        service.put("obj1", new_reads, new_bits.size)
        service.submit("obj1")
        CountingTwoWay.calls = []
        results = service.tick()
        assert len(CountingTwoWay.calls) == 1  # decoded fresh, not cached
        assert not results[0].cache_hit
        np.testing.assert_array_equal(results[0].bits, new_bits)

    def test_explicit_invalidate_forces_redecode(self, served):
        _, service, _ = served
        service.submit("obj0")
        service.tick()
        assert service.invalidate("obj0") > 0
        service.submit("obj0")
        CountingTwoWay.calls = []
        assert not service.tick()[0].cache_hit
        assert len(CountingTwoWay.calls) == 1


class TestMultiUnitAndPooled:
    def test_multi_unit_objects_round_trip(self):
        store = make_store()
        objects = make_objects(store, 3, units=2, seed=7)
        service = StoreService(store)
        for oid, (reads, bits) in objects.items():
            service.put(oid, reads, bits.size)
            service.submit(oid)
        CountingTwoWay.calls = []
        results = service.tick()
        assert len(CountingTwoWay.calls) == 1
        for result in results:
            assert result.clean
            np.testing.assert_array_equal(
                result.bits, objects[result.object_id][1]
            )

    def test_pooled_objects_coalesce_with_labeled(self):
        store = make_store()
        labeled = make_objects(store, 2, seed=3)
        pooled = make_objects(store, 2, seed=4, labeled=False)
        service = StoreService(store)
        for oid, (reads, bits) in labeled.items():
            service.put(f"lab-{oid}", reads, bits.size)
            service.submit(f"lab-{oid}")
        for oid, (reads, bits) in pooled.items():
            service.put(f"pool-{oid}", reads, bits.size, pool=True)
            service.submit(f"pool-{oid}")
        CountingTwoWay.calls = []
        results = service.tick()
        assert len(CountingTwoWay.calls) == 1
        expected = {f"lab-{k}": v[1] for k, v in labeled.items()}
        expected.update({f"pool-{k}": v[1] for k, v in pooled.items()})
        for result in results:
            assert result.clean
            np.testing.assert_array_equal(
                result.bits, expected[result.object_id]
            )

    def test_pooled_tick_rides_injected_lsh_clusterer(self):
        """``put(..., clusterer=...)`` threads an LSH clusterer through
        the tick; objects sharing one clusterer share ONE cluster_pools
        call, and the answers stay byte-correct."""
        from repro.cluster import LSHClusterer

        pools_calls = []

        class CountingLSH(LSHClusterer):
            def cluster_pools(self, batch, pool_boundaries=None):
                pools_calls.append(batch.n_reads)
                return super().cluster_pools(batch, pool_boundaries)

        store = make_store()
        pooled = make_objects(store, 2, seed=9, labeled=False)
        clusterer = CountingLSH.for_strand_length(
            store.pipeline.matrix_config.strand_length
        )
        service = StoreService(store)
        for oid, (reads, bits) in pooled.items():
            service.put(oid, reads, bits.size, pool=True,
                        clusterer=clusterer)
            service.submit(oid)
        results = service.tick()
        assert len(results) == 2
        # One coalesced clustering pass over both objects' pools.
        assert len(pools_calls) == 1
        assert pools_calls[0] == sum(
            reads.n_reads for reads, _ in pooled.values()
        )
        for result in results:
            assert result.clean
            np.testing.assert_array_equal(
                result.bits, pooled[result.object_id][1]
            )


class TestTelemetry:
    def test_tick_span_counters_and_manifest(self, served):
        _, service, objects = served
        tracer = Tracer()
        with use_tracer(tracer):
            for oid in objects:
                service.submit(oid)
            service.tick()
            for oid in objects:
                service.submit(oid)
            service.tick()  # warm
        stages = tracer.stage_totals()
        assert stages["service.tick"]["calls"] == 2
        counters = tracer.metrics.snapshot()["counters"]
        n = len(objects)
        assert counters["service.requests"] == 2 * n
        assert counters["service.ticks"] == 2
        assert counters["service.cache_unit_misses"] == n
        assert counters["service.cache_unit_hits"] == n
        assert [m.name for m in tracer.manifests] == [
            "service.tick", "service.tick",
        ]
        manifest = tracer.manifests[0]
        assert "service.tick" in manifest.stages
        span = tracer.roots[0].find("service.tick")
        assert span.attributes["n_requests"] == n
        assert span.attributes["n_objects"] == n


class TestLiveTelemetry:
    """Always-on service stats: no recording tracer anywhere in here."""

    def test_request_ids_are_monotonic_and_echoed(self, served):
        _, service, objects = served
        tickets = [service.submit(oid) for oid in objects]
        assert tickets == list(range(len(objects)))
        results = service.tick()
        assert [r.request_id for r in results] == tickets

    def test_always_on_metrics_without_tracer(self, served):
        _, service, objects = served
        n = len(objects)
        for _ in range(2):
            for oid in objects:
                service.submit(oid)
            service.tick()
        snapshot = service.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["service.submits"] == 2 * n
        assert counters["service.requests"] == 2 * n
        assert counters["service.answers"] == 2 * n
        assert counters["service.ticks"] == 2
        assert counters["service.cache_unit_misses"] == n
        assert counters["service.cache_unit_hits"] == n
        assert snapshot["gauges"]["service.queue_depth"] == 0
        assert snapshot["gauges"]["service.cache_size"] == n
        timing = snapshot["timings"]["service.request_seconds"]
        assert timing["count"] == 2 * n
        assert timing["p99"] >= timing["p50"] > 0
        assert snapshot["timings"]["service.queue_wait_seconds"][
            "count"] == 2 * n
        # One cold coalesced decode -> exactly one decode observation.
        assert snapshot["timings"]["service.decode_seconds"]["count"] == 1
        assert snapshot["histograms"]["service.read_outcomes"] == {
            "clean": 2 * n,
        }

    def test_cache_stats_always_on(self, served):
        _, service, objects = served
        n = len(objects)
        assert service.cache.stats() == {
            "size": 0, "capacity": 64, "hits": 0, "misses": 0,
            "evictions": 0, "hit_rate": 0.0,
        }
        for _ in range(2):
            for oid in objects:
                service.submit(oid)
            service.tick()
        stats = service.cache.stats()
        assert stats["size"] == n
        assert stats["misses"] == n   # cold pass
        assert stats["hits"] == n     # warm pass
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["evictions"] == 0

    def test_eviction_counter_reaches_registry(self, served):
        store, _, objects = served
        service = StoreService(store, cache_capacity=2)
        for oid, (reads, bits) in objects.items():
            service.put(oid, reads, bits.size)
        for oid in objects:  # 6 objects through a 2-entry cache
            service.submit(oid)
        service.tick()
        assert service.cache.stats()["evictions"] > 0
        counters = service.metrics.snapshot()["counters"]
        assert counters["service.cache_evictions"] == \
            service.cache.stats()["evictions"]

    def test_event_log_records_request_lifecycle(self, served):
        _, service, objects = served
        oid = next(iter(objects))
        ticket = service.submit(oid)
        service.tick()
        service.submit(oid)
        service.tick()  # warm: no decode event this time

        submits = service.events.records("submit")
        assert submits[0]["request_id"] == ticket
        assert submits[0]["object_id"] == oid
        assert submits[0]["queue_depth"] == 1

        coalesces = service.events.records("coalesce")
        assert [e["tick"] for e in coalesces] == [0, 1]
        assert coalesces[0] == {
            **coalesces[0], "n_requests": 1, "n_objects": 1,
        }

        decodes = service.events.records("decode")
        assert len(decodes) == 1
        assert decodes[0]["object_id"] == oid
        assert decodes[0]["seconds"] > 0

        assert [e["object_id"] for e in
                service.events.records("cache_hit")] == [oid]

        completes = service.events.records("complete")
        assert len(completes) == 2
        cold, warm = completes
        assert cold["request_id"] == ticket
        assert cold["cache_hit"] is False and warm["cache_hit"] is True
        assert cold["clean"] is True
        assert cold["decode_seconds"] > 0
        assert warm["decode_seconds"] == 0.0
        for record in completes:
            assert record["seconds"] >= record["queue_wait_seconds"]

    def test_event_log_file_sink(self, served, tmp_path):
        from repro.observability import EventLog

        store, _, objects = served
        path = tmp_path / "events.jsonl"
        service = StoreService(store, event_log=EventLog(path=path))
        for oid, (reads, bits) in objects.items():
            service.put(oid, reads, bits.size)
        service.submit(next(iter(objects)))
        service.tick()
        service.events.close()
        kinds = [r["event"] for r in EventLog.load_jsonl(path)]
        assert kinds[0] == "submit"
        assert "complete" in kinds

    def test_health_snapshot_and_verdict_flip(self, served):
        from repro.observability import SLOThresholds

        _, service, objects = served
        for _ in range(2):
            for oid in objects:
                service.submit(oid)
            service.tick()
        health = service.health()
        assert health.verdict == "ok"
        assert health.failure_rate == 0.0
        assert health.cache_hit_rate == pytest.approx(0.5)
        assert health.p99_seconds >= health.p50_seconds > 0
        assert health.requests_per_second > 0
        assert health.queue_depth == 0

        # The same service under an impossible SLO flips the verdict —
        # the check evaluates thresholds, not vibes.
        strict = service.health(slo=SLOThresholds(
            degraded_p99_seconds=1e-9, unhealthy_p99_seconds=1e-8,
        ))
        assert strict.checks["latency"] == "unhealthy"
        assert strict.verdict == "unhealthy"

    def test_health_window_forgets_old_latency(self, served):
        _, service, objects = served
        service.window.n_intervals  # sanity: window exists
        for oid in objects:
            service.submit(oid)
        service.tick()
        cold = service.health()           # interval 1: cold decode pass
        for _ in range(12):               # push the cold interval out
            for oid in objects:
                service.submit(oid)
            service.tick()
            service.health()
        warm = service.health()
        assert warm.p99_seconds < cold.p99_seconds
        assert warm.cache_hit_rate > 0.9  # lifetime stats, mostly warm

    def test_null_tracer_registry_untouched_by_serving(self, served):
        from repro.observability import NULL_REGISTRY

        _, service, objects = served
        for oid in objects:
            service.submit(oid)
        service.tick()
        assert NULL_REGISTRY.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}, "timings": {},
        }


class TestFailedTick:
    def test_raising_tick_accounts_for_every_drained_ticket(self):
        """Regression: one object registered with ``pool=True`` but
        labeled reads makes the coalesced decode of its window raise.
        The four drained tickets used to vanish (no ``complete`` event,
        no outcome, ``health()`` still ok); each now leaves an ``error``
        event and an ``error`` outcome."""
        store = make_store()
        objects = make_objects(store, 4)
        service = StoreService(store, cache_capacity=64)
        oids = list(objects)
        for oid, (reads, bits) in objects.items():
            service.put(oid, reads, bits.size, pool=oid == oids[1])
        tickets = [service.submit(oid) for oid in oids]
        with pytest.raises(ValueError, match="unit pools"):
            service.tick()

        assert service.queue_depth == 0
        assert service.events.records("complete") == []
        errors = service.events.records("error")
        assert [e["request_id"] for e in errors] == tickets
        assert [e["object_id"] for e in errors] == oids
        for event in errors:
            assert event["tick"] == 0
            assert event["error"] == "ValueError"
            assert "unit pools" in event["message"]
        snapshot = service.metrics.snapshot()
        assert snapshot["counters"]["service.errors"] == 4
        assert snapshot["histograms"]["service.read_outcomes"] == {
            "error": 4}
        health = service.health()
        assert health.failure_rate == 1.0
        assert health.verdict != "ok"

        # The plane keeps serving: a later tick of good objects answers.
        reads, bits = objects[oids[1]]
        service.put(oids[1], reads, bits.size)
        for oid in oids:
            service.submit(oid)
        answers = service.tick()
        assert [answer.object_id for answer in answers] == oids
        for answer in answers:
            assert answer.clean
            np.testing.assert_array_equal(answer.bits,
                                          objects[answer.object_id][1])
        assert len(service.events.records("complete")) == 4
