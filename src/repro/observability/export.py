"""Metrics exposition and service-health snapshots.

The always-on registry a live service accumulates (see
:class:`~repro.service.plane.StoreService`) is only useful if operators
can *read* it; this module is that surface:

* :func:`render_prometheus` — the registry (or any snapshot dict) in
  Prometheus text exposition format: counters and gauges as plain
  samples, categorical histograms as a label-dimensioned counter
  family, timing histograms as classic cumulative ``_bucket``/``_sum``/
  ``_count`` families. ``python -m repro.cli metrics`` prints this.
* :func:`parse_prometheus` — the inverse, used by
  :func:`verify_roundtrip`: render, parse back, and require the parsed
  values to match the snapshot — the machine check CI's exposition
  smoke runs, so a formatting regression can never ship silently.
* :class:`ServiceHealth` / :class:`SLOThresholds` — a rolled-up health
  snapshot (queue depth, req/s, p50/p99, cache hit rate, failure-reason
  rates) with per-check ``ok``/``degraded``/``unhealthy`` verdicts
  against explicit SLO thresholds. ``repro.cli top`` refreshes one per
  frame; ``repro.cli serve`` prints one as its closing line.

Metric names are sanitized to the Prometheus grammar
(``[a-zA-Z0-9_:]``): the registry's dotted names (``service.requests``)
become underscored (``repro_service_requests`` under the default
prefix). Two registry names that sanitize identically would collide;
:func:`verify_roundtrip` fails loudly on that rather than exposing one
of them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"')

DEFAULT_PREFIX = "repro"


def sanitize_metric_name(name: str) -> str:
    """A registry name as a legal Prometheus metric name component."""
    return _NAME_RE.sub("_", name)


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _unescape_label(value: str) -> str:
    return (value.replace("\\n", "\n").replace('\\"', '"')
            .replace("\\\\", "\\"))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def _bucket_sort_key(boundary: str) -> float:
    return math.inf if boundary == "+Inf" else float(boundary)


def render_prometheus(metrics, prefix: str = DEFAULT_PREFIX) -> str:
    """Render a registry (or its ``snapshot()`` dict) as Prometheus text.

    Counters/gauges map to their namesakes; a categorical histogram
    becomes a counter family with one ``label=...`` sample per observed
    label; a timing histogram becomes a classic Prometheus histogram
    (cumulative ``_bucket{le=...}`` samples over the non-empty bucket
    boundaries, ``_sum`` and ``_count``).
    """
    snapshot = metrics.snapshot() if hasattr(metrics, "snapshot") else metrics
    lines: List[str] = []

    def full_name(name: str) -> str:
        sanitized = sanitize_metric_name(name)
        return f"{prefix}_{sanitized}" if prefix else sanitized

    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = full_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")

    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = full_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")

    for name, counts in sorted(snapshot.get("histograms", {}).items()):
        metric = full_name(name)
        lines.append(f"# TYPE {metric} counter")
        for label, count in sorted(counts.items()):
            lines.append(
                f'{metric}{{label="{_escape_label(str(label))}"}} '
                f"{_format_value(count)}"
            )

    for name, entry in sorted(snapshot.get("timings", {}).items()):
        metric = full_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        buckets = sorted(entry.get("buckets", {}).items(),
                         key=lambda item: _bucket_sort_key(item[0]))
        for boundary, count in buckets:
            if boundary == "+Inf":
                continue  # folded into the mandatory +Inf sample below
            cumulative += int(count)
            lines.append(
                f'{metric}_bucket{{le="{boundary}"}} {cumulative}'
            )
        lines.append(
            f'{metric}_bucket{{le="+Inf"}} {int(entry.get("count", 0))}'
        )
        lines.append(f"{metric}_sum {_format_value(entry.get('sum', 0.0))}")
        lines.append(f"{metric}_count {int(entry.get('count', 0))}")

    return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus(text: str) -> dict:
    """Parse Prometheus text exposition back into a snapshot-shaped dict.

    The inverse of :func:`render_prometheus` for the subset it emits:
    returns ``{"counters", "gauges", "histograms", "timings"}`` keyed by
    the *exposed* (sanitized, prefixed) metric names. Timing entries
    carry ``count``, ``sum`` and the de-cumulated per-bucket counts.
    Raises :class:`ValueError` on lines that do not parse.
    """
    types: Dict[str, str] = {}
    result: dict = {"counters": {}, "gauges": {}, "histograms": {},
                    "timings": {}}
    cumulative: Dict[str, List[Tuple[str, int]]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: unparseable sample {raw!r}")
        name = match.group("name")
        labels = {
            m.group("key"): _unescape_label(m.group("value"))
            for m in _LABEL_RE.finditer(match.group("labels") or "")
        }
        text_value = match.group("value")
        value = (math.inf if text_value == "+Inf"
                 else -math.inf if text_value == "-Inf"
                 else float(text_value))

        family = name
        suffix = None
        for candidate in ("_bucket", "_sum", "_count"):
            base = name[: -len(candidate)] if name.endswith(candidate) \
                else None
            if base and types.get(base) == "histogram":
                family, suffix = base, candidate
                break
        kind = types.get(family)
        if kind == "histogram":
            entry = result["timings"].setdefault(
                family, {"count": 0, "sum": 0.0, "buckets": {}}
            )
            if suffix == "_bucket":
                boundary = labels.get("le", "+Inf")
                cumulative.setdefault(family, []).append(
                    (boundary, int(value))
                )
            elif suffix == "_sum":
                entry["sum"] = value
            elif suffix == "_count":
                entry["count"] = int(value)
            else:
                raise ValueError(
                    f"line {lineno}: bare sample {name!r} for histogram "
                    f"family {family!r}"
                )
        elif kind == "counter" and "label" in labels:
            result["histograms"].setdefault(family, {})[
                labels["label"]
            ] = int(value)
        elif kind == "counter":
            result["counters"][family] = (
                int(value) if value == int(value) else value
            )
        elif kind == "gauge":
            result["gauges"][family] = (
                int(value) if value == int(value) else value
            )
        else:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no # TYPE declaration"
            )

    # De-cumulate histogram buckets (the exposition is cumulative).
    for family, pairs in cumulative.items():
        pairs.sort(key=lambda item: _bucket_sort_key(item[0]))
        previous = 0
        buckets = {}
        for boundary, cum in pairs:
            delta = cum - previous
            if delta < 0:
                raise ValueError(
                    f"{family}: non-monotonic cumulative buckets"
                )
            if delta and boundary != "+Inf":
                buckets[boundary] = delta
            elif delta:
                buckets["+Inf"] = delta
            previous = cum
        entry = result["timings"][family]
        entry["buckets"] = buckets
        if pairs and pairs[-1][0] == "+Inf" \
                and pairs[-1][1] != entry["count"]:
            raise ValueError(
                f"{family}: +Inf bucket {pairs[-1][1]} != count "
                f"{entry['count']}"
            )
    return result


def verify_roundtrip(metrics, prefix: str = DEFAULT_PREFIX) -> str:
    """Render, parse back, and cross-check; returns the rendered text.

    The exposition smoke check: every counter/gauge value, every
    categorical label count, and every timing's count/sum/buckets must
    survive the render -> parse round trip exactly (floats to 1e-9
    relative). Raises :class:`ValueError` naming the first mismatch.
    """
    snapshot = metrics.snapshot() if hasattr(metrics, "snapshot") else metrics
    text = render_prometheus(snapshot, prefix=prefix)
    parsed = parse_prometheus(text)

    def exposed(name: str) -> str:
        sanitized = sanitize_metric_name(name)
        return f"{prefix}_{sanitized}" if prefix else sanitized

    def close(a, b) -> bool:
        a, b = float(a), float(b)
        return abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1.0)

    for kind in ("counters", "gauges"):
        block = snapshot.get(kind, {})
        if len({exposed(name) for name in block}) != len(block):
            raise ValueError(f"{kind}: sanitized name collision")
        for name, value in block.items():
            got = parsed[kind].get(exposed(name))
            if got is None or not close(value, got):
                raise ValueError(
                    f"{kind}[{name!r}]: {value!r} -> {got!r}"
                )
    for name, counts in snapshot.get("histograms", {}).items():
        got = parsed["histograms"].get(exposed(name), {})
        if {str(k): int(v) for k, v in counts.items()} != got:
            raise ValueError(f"histograms[{name!r}]: {counts!r} -> {got!r}")
    for name, entry in snapshot.get("timings", {}).items():
        got = parsed["timings"].get(exposed(name))
        if got is None:
            raise ValueError(f"timings[{name!r}]: missing after parse")
        if int(entry.get("count", 0)) != got["count"]:
            raise ValueError(
                f"timings[{name!r}].count: {entry.get('count')} -> "
                f"{got['count']}"
            )
        if not close(entry.get("sum", 0.0), got["sum"]):
            raise ValueError(
                f"timings[{name!r}].sum: {entry.get('sum')} -> "
                f"{got['sum']}"
            )
        want_buckets = {
            str(k): int(v) for k, v in entry.get("buckets", {}).items()
        }
        if want_buckets != got["buckets"]:
            raise ValueError(
                f"timings[{name!r}].buckets: {want_buckets!r} -> "
                f"{got['buckets']!r}"
            )
    return text


# -- service health ----------------------------------------------------------

_VERDICT_RANK = {"ok": 0, "degraded": 1, "unhealthy": 2}


@dataclass(frozen=True)
class SLOThresholds:
    """Two-tier service-level thresholds for :class:`ServiceHealth`.

    Each check reports ``ok`` below its degraded threshold, ``degraded``
    between the two tiers, and ``unhealthy`` past the second;
    ``min_cache_hit_rate`` is a single-tier floor (``None`` disables it
    — a cold service legitimately has no hits yet).
    """

    degraded_p99_seconds: float = 0.5
    unhealthy_p99_seconds: float = 2.0
    degraded_queue_depth: int = 64
    unhealthy_queue_depth: int = 512
    degraded_failure_rate: float = 0.01
    unhealthy_failure_rate: float = 0.10
    min_cache_hit_rate: Optional[float] = None


def _tiered(value, degraded, unhealthy) -> str:
    if value > unhealthy:
        return "unhealthy"
    if value > degraded:
        return "degraded"
    return "ok"


@dataclass
class ServiceHealth:
    """One rolled-up health snapshot of a live serving plane.

    Attributes:
        verdict: the worst per-check verdict (``ok`` / ``degraded`` /
            ``unhealthy``).
        checks: verdict per SLO check (``latency``, ``queue``,
            ``failures``, and ``cache`` when the hit-rate floor is set).
        queue_depth: tickets waiting right now.
        requests_per_second: answer rate over the sliding window.
        p50_seconds / p99_seconds: request-latency quantiles (submit to
            answer) over the sliding window.
        cache_hit_rate: cache hits / lookups (0.0 before any lookup).
        failure_rate: share of answers over the sliding window whose
            decode was not clean.
        failure_reasons: per-label shares of the failure-reason
            histogram over the sliding window (RS reason labels when a
            tracer sharing the service's registry recorded them, the
            service's clean/failed/error outcomes otherwise).
        window_seconds: the window length the rates cover.
    """

    verdict: str
    checks: Dict[str, str]
    queue_depth: int
    requests_per_second: float
    p50_seconds: float
    p99_seconds: float
    cache_hit_rate: float
    failure_rate: float
    failure_reasons: Dict[str, float] = field(default_factory=dict)
    window_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "checks": dict(self.checks),
            "queue_depth": self.queue_depth,
            "requests_per_second": round(self.requests_per_second, 3),
            "p50_seconds": round(self.p50_seconds, 9),
            "p99_seconds": round(self.p99_seconds, 9),
            "cache_hit_rate": round(self.cache_hit_rate, 6),
            "failure_rate": round(self.failure_rate, 6),
            "failure_reasons": {
                label: round(share, 6)
                for label, share in sorted(self.failure_reasons.items())
            },
            "window_seconds": round(self.window_seconds, 6),
        }

    def summary(self) -> str:
        """One status line: what ``serve`` prints and ``top`` headlines."""
        return (
            f"health: {self.verdict}"
            f"  req/s {self.requests_per_second:8.0f}"
            f"  p50 {self.p50_seconds * 1e3:7.2f} ms"
            f"  p99 {self.p99_seconds * 1e3:7.2f} ms"
            f"  cache {self.cache_hit_rate:6.1%}"
            f"  fail {self.failure_rate:6.2%}"
            f"  queue {self.queue_depth}"
        )


def capture_health(
    *,
    window,
    cache_stats: Mapping,
    queue_depth: int = 0,
    slo: Optional[SLOThresholds] = None,
) -> ServiceHealth:
    """Build a :class:`ServiceHealth` from a service's sliding window.

    Rates, latency quantiles, the failure rate and the failure reasons
    all cover the window's intervals, so a fault stops counting once it
    has left the window.

    Args:
        window: the :class:`~repro.observability.metrics.SlidingWindow`
            over the registry holding the ``service.*`` instruments. Its
            ``service.read_outcomes`` give the failure rate; its
            ``rs.failure_reasons`` (recorded there by a tracer that
            shares the registry) give the reasons, else the outcomes do.
        cache_stats: a :meth:`DecodedUnitCache.stats` dict (its hits and
            misses give the hit rate).
        queue_depth: current queue depth.
        slo: thresholds (defaults to :class:`SLOThresholds`).
    """
    slo = slo if slo is not None else SLOThresholds()
    rate = window.rate("service.answers")
    p50 = window.quantile("service.request_seconds", 0.50)
    p99 = window.quantile("service.request_seconds", 0.99)
    lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
    hit_rate = cache_stats.get("hits", 0) / lookups if lookups else 0.0

    outcomes = window.histogram("service.read_outcomes")
    total_outcomes = sum(outcomes.values())
    failed = sum(
        count for label, count in outcomes.items() if label != "clean"
    )
    failure_rate = failed / total_outcomes if total_outcomes else 0.0
    reasons = window.histogram("rs.failure_reasons") or outcomes
    total_reasons = sum(reasons.values())
    failure_reasons = {
        label: count / total_reasons
        for label, count in reasons.items()
        if label not in ("ok", "clean")  # shares of total, failures only
    } if total_reasons else {}

    checks = {
        "latency": _tiered(p99, slo.degraded_p99_seconds,
                           slo.unhealthy_p99_seconds),
        "queue": _tiered(queue_depth, slo.degraded_queue_depth,
                         slo.unhealthy_queue_depth),
        "failures": _tiered(failure_rate, slo.degraded_failure_rate,
                            slo.unhealthy_failure_rate),
    }
    if slo.min_cache_hit_rate is not None:
        checks["cache"] = ("ok" if hit_rate >= slo.min_cache_hit_rate
                           else "degraded")
    verdict = max(checks.values(), key=_VERDICT_RANK.__getitem__)
    return ServiceHealth(
        verdict=verdict,
        checks=checks,
        queue_depth=int(queue_depth),
        requests_per_second=float(rate),
        p50_seconds=float(p50),
        p99_seconds=float(p99),
        cache_hit_rate=float(hit_rate),
        failure_rate=float(failure_rate),
        failure_reasons=failure_reasons,
        window_seconds=float(window.window_seconds),
    )
