"""Counters, gauges, categorical and timing histograms behind a registry.

The decode path's pipeline metrics live here: per-stage input/output row
counts, RS failure-reason histograms (straight from
``BatchDecodeResult.reason_counts()``), erasure-budget utilization and
retry-wave counts, consensus iteration/active-set counts, clustering
founder-round and prefilter-pruning counters. Instruments are
get-or-create by name on the registry the active tracer owns::

    m = get_tracer().metrics
    m.counter("rs.retry_rows").add(retry.size)
    m.gauge("consensus.active_clusters").set(active.size)
    m.histogram("rs.failure_reasons").observe_counts(result.reason_counts())
    m.timing("store.read_seconds").observe(elapsed)

The serving plane adds the *live* half: :class:`TimingHistogram` keeps
numeric observations (latencies) in fixed log-spaced buckets — bounded
memory however long the service runs — with p50/p95/p99 quantile
estimates accurate to one bucket boundary, and :class:`SlidingWindow`
turns a registry's lifetime totals into last-N-intervals rates and
quantiles (a ring of per-interval snapshot deltas, so a long-running
service reports "req/s over the last minute", not "since process
start").

The :data:`NULL_REGISTRY` mirrors the API with shared no-op instruments
so untraced code pays only the method-call cost (no allocation, no
dict writes).
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from collections import deque
from typing import Dict, List, Mapping, Optional, Tuple, Union

Number = Union[int, float]


class Counter:
    """A monotonically growing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def add(self, amount: Number = 1) -> None:
        self.value += amount


class Gauge:
    """A last-value-wins measurement (e.g. the current active-set size)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        self.value = value

    def add(self, delta: Number = 1) -> None:
        """Increment (or decrement) in place; an unset gauge starts at 0.

        Queue-depth style gauges move by deltas from several call sites
        (+1 on submit, -N on drain); ``add`` keeps those sites free of
        read-modify-write sequences against ``value``.
        """
        self.value = (self.value or 0) + delta


class Histogram:
    """A categorical histogram: observation counts per label.

    The decode path's distributions are label-shaped (RS failure reasons,
    clustering prune causes), so the histogram counts labels rather than
    bucketing floats; numeric observations pass their value as the label.
    """

    __slots__ = ("name", "counts")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts: Dict[str, int] = {}

    def observe(self, label, amount: int = 1) -> None:
        key = str(label)
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def observe_counts(self, counts: Mapping) -> None:
        """Merge a ``{label: count}`` mapping (e.g. ``reason_counts()``)."""
        for label, amount in counts.items():
            self.observe(label, amount)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _quantile_from_buckets(
    bounds: List[float],
    counts: List[int],
    total: int,
    q: float,
    observed_max: float,
) -> float:
    """Quantile estimate over a (bounds, counts) bucket layout.

    Returns the upper boundary of the bucket holding the ``q``-th
    observation (clamped to the largest observed value), so the estimate
    is always within one bucket boundary of the exact percentile.
    Shared by :class:`TimingHistogram` (lifetime counts) and
    :class:`SlidingWindow` (merged interval deltas).
    """
    if total <= 0:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    target = max(1, math.ceil(q * total))
    cumulative = 0
    for i, count in enumerate(counts):
        cumulative += count
        if cumulative >= target:
            upper = bounds[i] if i < len(bounds) else observed_max
            return min(upper, observed_max)
    return observed_max


class TimingHistogram:
    """Numeric observations in fixed log-spaced buckets, bounded memory.

    Latency distributions span orders of magnitude (a cache hit is
    microseconds, a cold pooled decode is seconds), so the buckets are
    log-spaced: ``buckets_per_decade`` upper boundaries per factor of 10
    between ``lowest`` and ``highest``, plus one overflow bucket. The
    bucket array is allocated once — a service observing forever never
    grows it — and quantile estimates (:meth:`quantile`) land within one
    bucket boundary of the exact percentile (~58% relative width at the
    default 5 buckets/decade).

    Observations at or below ``lowest`` land in the first bucket; above
    ``highest`` in the overflow bucket (quantiles there report the
    observed maximum).
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum",
                 "min_value", "max_value")

    def __init__(
        self,
        name: str,
        lowest: float = 1e-6,
        highest: float = 3600.0,
        buckets_per_decade: int = 5,
    ) -> None:
        if lowest <= 0 or highest <= lowest:
            raise ValueError(
                f"need 0 < lowest < highest, got {lowest}..{highest}"
            )
        if buckets_per_decade < 1:
            raise ValueError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade}"
            )
        self.name = name
        n = int(math.ceil(
            math.log10(highest / lowest) * buckets_per_decade
        )) + 1
        self.bounds: List[float] = [
            lowest * 10.0 ** (i / buckets_per_decade) for i in range(n)
        ]
        self.counts: List[int] = [0] * (n + 1)  # +1: the overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min_value = math.inf
        self.max_value = 0.0

    def observe(self, value: Number) -> None:
        """Record one observation (seconds, for the latency timings)."""
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    def observe_many(self, values) -> None:
        for value in values:
            self.observe(value)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0.5 = p50), within one bucket
        boundary of the exact percentile; 0.0 when empty."""
        return _quantile_from_buckets(
            self.bounds, self.counts, self.count, q, self.max_value
        )

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        """Plain-dict state: count/sum/min/max, headline quantiles, and
        the non-empty buckets keyed by upper boundary (``"+Inf"`` for
        the overflow bucket)."""
        buckets = {}
        for i, count in enumerate(self.counts):
            if count:
                key = ("+Inf" if i == len(self.bounds)
                       else f"{self.bounds[i]:.9g}")
                buckets[key] = count
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "min": round(self.min_value, 9) if self.count else 0.0,
            "max": round(self.max_value, 9),
            "p50": round(self.quantile(0.50), 9),
            "p95": round(self.quantile(0.95), 9),
            "p99": round(self.quantile(0.99), 9),
            "buckets": buckets,
        }


class SlidingWindow:
    """Last-N-intervals rates, quantiles and label counts over a registry.

    A ring of per-interval *snapshot deltas*: each :meth:`roll` closes
    the current interval by diffing the registry's counters, timing
    histograms and categorical histograms against the previous roll and
    pushes the deltas onto a ``deque(maxlen=n_intervals)`` — old
    intervals fall off the far end, so :meth:`rate`, :meth:`quantile`
    and :meth:`histogram` reflect the last ``n_intervals`` rolls, not
    process lifetime. Memory is bounded by ``n_intervals`` times the
    instrument count.

    The caller owns the cadence: a console refresher rolls once per
    frame, a scraper once per scrape. ``roll(seconds=...)`` overrides
    the measured wall-clock interval (tests pin rates that way).
    """

    def __init__(self, registry: "MetricRegistry",
                 n_intervals: int = 12) -> None:
        if n_intervals < 1:
            raise ValueError(
                f"n_intervals must be >= 1, got {n_intervals}"
            )
        self.registry = registry
        self.n_intervals = n_intervals
        self._intervals: deque = deque(maxlen=n_intervals)
        self._last = self._capture()
        self._last_time = time.perf_counter()

    def _capture(self) -> Tuple[dict, dict, dict]:
        counters = {
            name: c.value for name, c in self.registry._counters.items()
        }
        timings = {
            name: (list(t.counts), t.count, t.sum)
            for name, t in self.registry._timings.items()
        }
        histograms = {
            name: dict(h.counts)
            for name, h in self.registry._histograms.items()
        }
        return counters, timings, histograms

    def roll(self, seconds: Optional[float] = None) -> None:
        """Close the current interval and push its deltas onto the ring."""
        now = time.perf_counter()
        if seconds is None:
            seconds = now - self._last_time
        self._last_time = now
        counters, timings, histograms = self._capture()
        last_counters, last_timings, last_histograms = self._last
        counter_deltas = {
            name: value - last_counters.get(name, 0)
            for name, value in counters.items()
        }
        timing_deltas = {}
        for name, (counts, count, total) in timings.items():
            last = last_timings.get(name)
            if last is None:
                timing_deltas[name] = (list(counts), count, total)
            else:
                last_counts, last_count, last_sum = last
                timing_deltas[name] = (
                    [c - lc for c, lc in zip(counts, last_counts)],
                    count - last_count,
                    total - last_sum,
                )
        histogram_deltas = {}
        for name, counts in histograms.items():
            last = last_histograms.get(name, {})
            histogram_deltas[name] = {
                label: count - last.get(label, 0)
                for label, count in counts.items()
                if count != last.get(label, 0)
            }
        self._intervals.append((max(float(seconds), 0.0), counter_deltas,
                                timing_deltas, histogram_deltas))
        self._last = (counters, timings, histograms)

    @property
    def window_seconds(self) -> float:
        """Summed wall-clock length of the intervals still in the ring."""
        return sum(interval[0] for interval in self._intervals)

    def total(self, counter_name: str) -> Number:
        """A counter's growth across the window."""
        return sum(
            deltas.get(counter_name, 0)
            for _, deltas, _, _ in self._intervals
        )

    def histogram(self, histogram_name: str) -> Dict[str, int]:
        """A categorical histogram's label counts observed within the
        window (labels with no observation there are left out)."""
        merged: Dict[str, int] = {}
        for *_, histograms in self._intervals:
            for label, count in histograms.get(histogram_name, {}).items():
                merged[label] = merged.get(label, 0) + count
        return {label: count for label, count in merged.items() if count}

    def rate(self, counter_name: str) -> float:
        """A counter's per-second rate over the window (0.0 when the
        window is empty or zero-length)."""
        seconds = self.window_seconds
        if seconds <= 0:
            return 0.0
        return self.total(counter_name) / seconds

    def _merged_timing(self, timing_name: str):
        merged: Optional[List[int]] = None
        count = 0
        total = 0.0
        for _, _, timings, _ in self._intervals:
            delta = timings.get(timing_name)
            if delta is None:
                continue
            counts, n, s = delta
            if merged is None:
                merged = list(counts)
            else:
                for i, c in enumerate(counts):
                    merged[i] += c
            count += n
            total += s
        return merged, count, total

    def timing_count(self, timing_name: str) -> int:
        """Observations recorded within the window."""
        return self._merged_timing(timing_name)[1]

    def timing_mean(self, timing_name: str) -> float:
        merged, count, total = self._merged_timing(timing_name)
        return total / count if count else 0.0

    def quantile(self, timing_name: str, q: float) -> float:
        """Quantile estimate over the window's observations only."""
        merged, count, _ = self._merged_timing(timing_name)
        if merged is None or count <= 0:
            return 0.0
        instrument = self.registry._timings.get(timing_name)
        if instrument is None:
            return 0.0
        return _quantile_from_buckets(
            instrument.bounds, merged, count, q, instrument.max_value
        )


class MetricRegistry:
    """Get-or-create instruments by name; snapshot to plain dicts."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timings: Dict[str, TimingHistogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def timing(self, name: str, **kwargs) -> TimingHistogram:
        """Get-or-create a :class:`TimingHistogram`; ``kwargs`` (bucket
        layout) apply only on first creation."""
        instrument = self._timings.get(name)
        if instrument is None:
            instrument = self._timings[name] = TimingHistogram(
                name, **kwargs
            )
        return instrument

    def snapshot(self) -> dict:
        """Plain-dict state: what manifests embed and reports render."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
                if g.value is not None
            },
            "histograms": {
                name: dict(sorted(h.counts.items()))
                for name, h in sorted(self._histograms.items())
            },
            "timings": {
                name: t.snapshot()
                for name, t in sorted(self._timings.items())
                if t.count
            },
        }


class _NullCounter:
    __slots__ = ()

    def add(self, amount: Number = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: Number) -> None:
        pass

    def add(self, delta: Number = 1) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, label, amount: int = 1) -> None:
        pass

    def observe_counts(self, counts: Mapping) -> None:
        pass


class _NullTiming:
    __slots__ = ()

    count = 0
    sum = 0.0
    mean = 0.0

    def observe(self, value: Number) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0, "buckets": {}}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_TIMING = _NullTiming()


class NullMetricRegistry:
    """No-op registry handing out shared no-op instruments."""

    __slots__ = ()

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def timing(self, name: str, **kwargs) -> _NullTiming:
        return _NULL_TIMING

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {},
                "timings": {}}


NULL_REGISTRY = NullMetricRegistry()
