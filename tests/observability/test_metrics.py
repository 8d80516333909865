"""Metric instruments and registry snapshot semantics."""

import math

import numpy as np
import pytest

from repro.observability import (
    MetricRegistry,
    NULL_REGISTRY,
    SlidingWindow,
    TimingHistogram,
)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricRegistry()
        counter = registry.counter("rows")
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_counter_is_get_or_create(self):
        registry = MetricRegistry()
        registry.counter("x").add(1)
        registry.counter("x").add(2)
        assert registry.counter("x").value == 3

    def test_gauge_last_value_wins(self):
        registry = MetricRegistry()
        gauge = registry.gauge("active")
        assert gauge.value is None
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3

    def test_gauge_add_increments_and_decrements(self):
        gauge = MetricRegistry().gauge("depth")
        gauge.add()        # unset gauge starts from 0
        gauge.add(4)
        gauge.add(-2)
        assert gauge.value == 3
        gauge.set(10)
        gauge.add(-10)
        assert gauge.value == 0

    def test_histogram_counts_labels(self):
        registry = MetricRegistry()
        hist = registry.histogram("reasons")
        hist.observe("ok", 10)
        hist.observe("ok")
        hist.observe("bad")
        assert hist.counts == {"ok": 11, "bad": 1}
        assert hist.total == 12

    def test_histogram_merges_count_dicts(self):
        hist = MetricRegistry().histogram("reasons")
        hist.observe_counts({"ok": 2, "bad": 1})
        hist.observe_counts({"ok": 3})
        assert hist.counts == {"ok": 5, "bad": 1}

    def test_histogram_stringifies_labels(self):
        hist = MetricRegistry().histogram("codes")
        hist.observe(0)
        hist.observe(0)
        assert hist.counts == {"0": 2}


class TestSnapshot:
    def test_snapshot_is_plain_sorted_dicts(self):
        registry = MetricRegistry()
        registry.counter("b").add(2)
        registry.counter("a").add(1)
        registry.gauge("set").set(9)
        registry.gauge("unset")  # never set: excluded from the snapshot
        registry.histogram("h").observe("z")
        registry.histogram("h").observe("a")
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "b"]
        assert snapshot["gauges"] == {"set": 9}
        assert list(snapshot["histograms"]["h"]) == ["a", "z"]

    def test_empty_registry_snapshot(self):
        assert MetricRegistry().snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}, "timings": {},
        }


class TestNullRegistry:
    def test_shared_no_op_instruments(self):
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")
        assert NULL_REGISTRY.gauge("a") is NULL_REGISTRY.gauge("b")
        assert NULL_REGISTRY.histogram("a") is NULL_REGISTRY.histogram("b")
        assert NULL_REGISTRY.timing("a") is NULL_REGISTRY.timing("b")

    def test_operations_leave_no_state(self):
        NULL_REGISTRY.counter("c").add(10)
        NULL_REGISTRY.gauge("g").set(1)
        NULL_REGISTRY.gauge("g").add(2)
        NULL_REGISTRY.histogram("h").observe("x")
        NULL_REGISTRY.histogram("h").observe_counts({"y": 2})
        NULL_REGISTRY.timing("t").observe(0.5)
        assert NULL_REGISTRY.timing("t").quantile(0.5) == 0.0
        assert NULL_REGISTRY.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}, "timings": {},
        }


class TestTimingHistogram:
    def test_quantiles_within_one_bucket_of_exact(self):
        # The acceptance contract: the estimate is the upper bound of
        # the bucket holding the exact percentile (clamped to the
        # observed max), so it is never below the exact value and never
        # past the next bucket boundary.
        rng = np.random.default_rng(7)
        values = rng.lognormal(mean=-4.0, sigma=1.5, size=5_000)
        hist = TimingHistogram("t", buckets_per_decade=5)
        hist.observe_many(values)
        ratio = 10.0 ** (1.0 / 5)  # one bucket's relative width
        for q in (0.50, 0.95, 0.99):
            exact = float(np.quantile(values, q, method="inverted_cdf"))
            estimate = hist.quantile(q)
            assert exact <= estimate <= exact * ratio * (1 + 1e-9), (
                f"q={q}: exact {exact}, estimate {estimate}"
            )

    def test_bounded_memory_and_overflow(self):
        hist = TimingHistogram("t", lowest=1e-3, highest=10.0,
                               buckets_per_decade=2)
        n_buckets = len(hist.counts)
        hist.observe_many([1e-6, 5000.0, 0.02] * 1000)
        assert len(hist.counts) == n_buckets  # fixed layout, never grows
        assert hist.count == 3000
        assert hist.quantile(1.0) == 5000.0  # overflow reports observed max
        assert hist.quantile(0.0) <= 1e-3    # underflow lands in bucket 0

    def test_mean_sum_min_max(self):
        hist = TimingHistogram("t")
        hist.observe(0.1)
        hist.observe(0.3)
        assert hist.count == 2
        assert hist.sum == pytest.approx(0.4)
        assert hist.mean == pytest.approx(0.2)
        assert hist.min_value == pytest.approx(0.1)
        assert hist.max_value == pytest.approx(0.3)

    def test_empty_quantile_is_zero(self):
        assert TimingHistogram("t").quantile(0.99) == 0.0

    def test_quantile_rejects_out_of_range(self):
        hist = TimingHistogram("t")
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_rejects_bad_layout(self):
        with pytest.raises(ValueError):
            TimingHistogram("t", lowest=0.0)
        with pytest.raises(ValueError):
            TimingHistogram("t", lowest=1.0, highest=0.5)
        with pytest.raises(ValueError):
            TimingHistogram("t", buckets_per_decade=0)

    def test_snapshot_shape(self):
        hist = TimingHistogram("t")
        hist.observe(0.01)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["sum"] == pytest.approx(0.01)
        assert sum(snap["buckets"].values()) == 1
        # Bucket keys parse back to floats ("+Inf" for overflow).
        for key in snap["buckets"]:
            assert key == "+Inf" or math.isfinite(float(key))

    def test_registry_snapshot_includes_nonempty_timings_only(self):
        registry = MetricRegistry()
        registry.timing("empty")
        registry.timing("used").observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot["timings"]) == ["used"]
        assert snapshot["timings"]["used"]["count"] == 1


class TestSlidingWindow:
    def test_rates_cover_the_window_not_lifetime(self):
        registry = MetricRegistry()
        window = SlidingWindow(registry, n_intervals=3)
        registry.counter("reqs").add(100)
        window.roll(seconds=1.0)
        registry.counter("reqs").add(10)
        window.roll(seconds=1.0)
        assert window.total("reqs") == 110
        assert window.rate("reqs") == pytest.approx(55.0)

    def test_old_intervals_are_forgotten(self):
        registry = MetricRegistry()
        window = SlidingWindow(registry, n_intervals=2)
        registry.counter("reqs").add(1000)
        registry.timing("lat").observe(100.0)  # a terrible early latency
        registry.histogram("outcomes").observe("failed", 5)
        window.roll(seconds=1.0)
        for _ in range(2):  # two fresh intervals push the burst out
            registry.counter("reqs").add(10)
            registry.timing("lat").observe(0.001)
            registry.histogram("outcomes").observe("clean")
            window.roll(seconds=1.0)
        assert window.total("reqs") == 20
        assert window.rate("reqs") == pytest.approx(10.0)
        # The window quantile reflects only the recent 1ms observations,
        # not the forgotten 100s outlier.
        assert window.quantile("lat", 0.99) < 0.01
        # Label counts, too: the early failures left with their interval.
        assert window.histogram("outcomes") == {"clean": 2}

    def test_quantile_merges_intervals(self):
        registry = MetricRegistry()
        window = SlidingWindow(registry, n_intervals=4)
        for value in (0.001, 0.002):
            registry.timing("lat").observe(value)
            window.roll(seconds=1.0)
        # Both intervals' observations count: the median sits in the
        # first one's bucket and the maximum in the second one's.
        assert 0.001 <= window.quantile("lat", 0.5) < 0.002
        assert window.quantile("lat", 1.0) >= 0.002

    def test_empty_window_is_zero(self):
        registry = MetricRegistry()
        window = SlidingWindow(registry, n_intervals=2)
        assert window.rate("anything") == 0.0
        assert window.quantile("anything", 0.5) == 0.0
        assert window.histogram("anything") == {}
        assert window.window_seconds == 0.0

    def test_rejects_bad_interval_count(self):
        with pytest.raises(ValueError):
            SlidingWindow(MetricRegistry(), n_intervals=0)
