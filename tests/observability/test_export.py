"""Prometheus exposition round-trip and ServiceHealth verdicts."""

import pytest

from repro.observability import (
    MetricRegistry,
    SLOThresholds,
    SlidingWindow,
    capture_health,
    parse_prometheus,
    render_prometheus,
    sanitize_metric_name,
    verify_roundtrip,
)


def populated_registry(registry=None) -> MetricRegistry:
    registry = registry if registry is not None else MetricRegistry()
    registry.counter("service.requests").add(128)
    registry.counter("service.ticks").add(16)
    registry.gauge("service.queue_depth").set(3)
    registry.histogram("service.read_outcomes").observe("clean", 120)
    registry.histogram("service.read_outcomes").observe("failed", 8)
    timing = registry.timing("service.request_seconds")
    timing.observe_many([0.001, 0.002, 0.004, 0.05, 1.5])
    return registry


class TestRender:
    def test_type_lines_and_prefix(self):
        text = render_prometheus(populated_registry())
        assert "# TYPE repro_service_requests counter" in text
        assert "repro_service_requests 128" in text
        assert "# TYPE repro_service_queue_depth gauge" in text
        assert "# TYPE repro_service_request_seconds histogram" in text
        assert 'repro_service_read_outcomes{label="clean"} 120' in text

    def test_histogram_buckets_are_cumulative_and_end_at_count(self):
        text = render_prometheus(populated_registry())
        bucket_lines = [
            line for line in text.splitlines()
            if line.startswith("repro_service_request_seconds_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)  # cumulative, monotone
        assert bucket_lines[-1].startswith(
            'repro_service_request_seconds_bucket{le="+Inf"}'
        )
        assert counts[-1] == 5
        assert "repro_service_request_seconds_count 5" in text

    def test_name_sanitization(self):
        assert sanitize_metric_name("rs.failure-reasons") == \
            "rs_failure_reasons"
        registry = MetricRegistry()
        registry.counter("weird.name-with/chars").add(1)
        text = render_prometheus(registry)
        assert "repro_weird_name_with_chars 1" in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricRegistry()) == ""

    def test_accepts_snapshot_dict(self):
        registry = populated_registry()
        assert render_prometheus(registry.snapshot()) == \
            render_prometheus(registry)


class TestRoundTrip:
    def test_parse_inverts_render(self):
        registry = populated_registry()
        parsed = parse_prometheus(render_prometheus(registry))
        assert parsed["counters"]["repro_service_requests"] == 128
        assert parsed["gauges"]["repro_service_queue_depth"] == 3
        assert parsed["histograms"]["repro_service_read_outcomes"] == {
            "clean": 120, "failed": 8,
        }
        timing = parsed["timings"]["repro_service_request_seconds"]
        assert timing["count"] == 5
        assert timing["sum"] == pytest.approx(1.557)
        snap = registry.snapshot()["timings"]["service.request_seconds"]
        assert timing["buckets"] == snap["buckets"]

    def test_verify_roundtrip_returns_text(self):
        registry = populated_registry()
        text = verify_roundtrip(registry)
        assert text == render_prometheus(registry)

    def test_label_escaping_survives(self):
        registry = MetricRegistry()
        registry.histogram("reasons").observe('tricky "label"\nnewline')
        parsed = parse_prometheus(render_prometheus(registry))
        assert parsed["histograms"]["repro_reasons"] == {
            'tricky "label"\nnewline': 1,
        }
        verify_roundtrip(registry)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not exposition format")

    def test_parse_rejects_untyped_sample(self):
        with pytest.raises(ValueError, match="TYPE"):
            parse_prometheus("mystery_metric 1")

    def test_verify_flags_sanitization_collision(self):
        registry = MetricRegistry()
        registry.counter("a.b").add(1)
        registry.counter("a/b").add(2)  # both expose as repro_a_b
        with pytest.raises(ValueError, match="collision"):
            verify_roundtrip(registry)


def windowed():
    """An empty registry and a sliding window opened over it."""
    registry = MetricRegistry()
    return registry, SlidingWindow(registry, n_intervals=4)


def health_of(registry, window, cache_stats=None, **kwargs):
    """Close a 10 s interval, then ``capture_health`` over the window."""
    window.roll(seconds=10.0)
    return capture_health(window=window, cache_stats=cache_stats or {},
                          **kwargs)


class TestServiceHealth:
    # populated_registry's timing tops out at 1.5 s and its outcomes run
    # 6.25% failed, so the health tests that expect "ok" loosen those
    # tiers above the populated values.
    LOOSE = SLOThresholds(degraded_p99_seconds=5.0,
                          unhealthy_p99_seconds=10.0,
                          degraded_failure_rate=0.10,
                          unhealthy_failure_rate=0.50)

    def test_healthy_snapshot(self):
        registry, window = windowed()
        populated_registry(registry)
        health = health_of(registry, window, queue_depth=3, slo=self.LOOSE)
        assert health.verdict == "ok"
        assert health.checks == {
            "latency": "ok", "queue": "ok", "failures": "ok",
        }
        # No answers counter in the window: 0 req/s.
        assert health.requests_per_second == 0.0
        registry.counter("service.answers").add(128)
        health = health_of(registry, window, queue_depth=3, slo=self.LOOSE)
        assert health.requests_per_second == pytest.approx(6.4)
        assert health.window_seconds == pytest.approx(20.0)
        assert health.p99_seconds > 0

    def test_verdict_flips_degraded_then_unhealthy(self):
        registry, window = windowed()
        registry.timing("service.request_seconds").observe(1.0)  # slow
        slo = SLOThresholds(degraded_p99_seconds=0.5,
                            unhealthy_p99_seconds=2.0)
        health = health_of(registry, window, slo=slo)
        assert health.checks["latency"] == "degraded"
        assert health.verdict == "degraded"

        registry.timing("service.request_seconds").observe(30.0)
        health = health_of(registry, window, slo=slo)
        assert health.checks["latency"] == "unhealthy"
        assert health.verdict == "unhealthy"

    def test_queue_and_failure_checks(self):
        registry, window = windowed()
        outcomes = registry.histogram("service.read_outcomes")
        outcomes.observe("clean", 80)
        outcomes.observe("failed", 20)  # 20% failures
        health = health_of(registry, window, queue_depth=1000)
        assert health.checks["queue"] == "unhealthy"
        assert health.checks["failures"] == "unhealthy"
        assert health.failure_rate == pytest.approx(0.20)
        assert health.failure_reasons == {"failed": pytest.approx(0.20)}

    def test_rs_failure_reasons_preferred_when_present(self):
        registry, window = windowed()
        registry.histogram("service.read_outcomes").observe("clean", 9)
        registry.histogram("service.read_outcomes").observe("failed", 1)
        reasons = registry.histogram("rs.failure_reasons")
        reasons.observe("ok", 9)
        reasons.observe("erasures exceed correction capability", 1)
        health = health_of(registry, window)
        assert health.failure_reasons == {
            "erasures exceed correction capability": pytest.approx(0.1),
        }

    def test_cache_hit_rate_from_stats_and_floor_check(self):
        registry, window = windowed()
        stats = {"hits": 30, "misses": 70}
        slo = SLOThresholds(min_cache_hit_rate=0.5)
        health = health_of(registry, window, cache_stats=stats, slo=slo)
        assert health.cache_hit_rate == pytest.approx(0.30)
        assert health.checks["cache"] == "degraded"
        assert health.verdict == "degraded"

    def test_cache_hit_rate_before_any_lookup(self):
        health = health_of(*windowed(),
                           cache_stats={"hits": 0, "misses": 0})
        assert health.cache_hit_rate == 0.0

    def test_windowed_rates_and_quantiles(self):
        registry = MetricRegistry()
        window = SlidingWindow(registry, n_intervals=4)
        registry.counter("service.answers").add(50)
        registry.timing("service.request_seconds").observe_many(
            [0.001] * 50
        )
        window.roll(seconds=2.0)
        health = capture_health(window=window, cache_stats={})
        assert health.requests_per_second == pytest.approx(25.0)
        assert health.window_seconds == pytest.approx(2.0)
        assert 0.0 < health.p50_seconds < 0.01

    def test_window_and_cache_stats_are_required(self):
        registry = MetricRegistry()
        with pytest.raises(TypeError):
            capture_health(registry, cache_stats={})
        with pytest.raises(TypeError):
            capture_health(registry, window=SlidingWindow(registry))

    def test_to_dict_and_summary(self):
        registry, window = windowed()
        populated_registry(registry)
        health = health_of(registry, window, queue_depth=2, slo=self.LOOSE)
        as_dict = health.to_dict()
        assert as_dict["verdict"] == "ok"
        assert as_dict["queue_depth"] == 2
        assert "latency" in as_dict["checks"]
        line = health.summary()
        assert line.startswith("health: ok")
        assert "p99" in line and "queue 2" in line
