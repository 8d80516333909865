"""Decode-path observability: tracing, metrics and run manifests.

The decode pipeline is columnar end to end (channel -> clustering ->
consensus -> receive -> RS errata); this package makes it *inspectable*
without de-batching anything:

* :mod:`repro.observability.trace` — nested wall-clock spans on monotonic
  clocks with per-span attributes, a thread-local active tracer, and a
  :class:`NullTracer` default so the instrumented hot paths pay near-zero
  overhead (one attribute lookup and two no-op calls per *stage*, never
  per row) when tracing is off;
* :mod:`repro.observability.metrics` — counters/gauges/histograms behind
  a registry the tracer owns: RS failure reasons, erasure-budget
  utilization, retry waves, consensus iteration/active-set counts,
  clustering founder rounds and prefilter pruning, per-stage row counts;
* :mod:`repro.observability.manifest` — a :class:`RunManifest` (schema
  version, config fingerprint, seeds/context, aggregated per-stage wall
  times, metric snapshot, environment) serialized to JSON with a
  machine-checkable validator;
* :mod:`repro.observability.report` — a text/markdown renderer and a
  manifest differ, also exposed as ``python -m repro.cli report``;
* :mod:`repro.observability.events` — :class:`EventLog`, the serving
  plane's structured JSON-lines request trace (submit / coalesce /
  decode / cache_hit / complete records keyed by request id);
* :mod:`repro.observability.export` — the live-service surface:
  Prometheus text exposition of any registry
  (:func:`render_prometheus` / :func:`parse_prometheus` /
  :func:`verify_roundtrip`, behind ``python -m repro.cli metrics``) and
  :class:`ServiceHealth` snapshots with SLO verdicts
  (:func:`capture_health`, behind ``python -m repro.cli top``).

Typical use::

    from repro.observability import Tracer, use_tracer, render_manifest

    tracer = Tracer()
    tracer.context["seed"] = 0
    with use_tracer(tracer):
        pool = simulator.sequence_store(image, rng=0, labeled=False)
        bits, report = store.read(ReadRequest(pool, payload.size, pool=True))
    manifest = tracer.manifests[-1]        # emitted by store.read
    manifest.save("run.json")
    print(render_manifest(manifest))

With no tracer activated, every instrumented call site sees the shared
:data:`NULL_TRACER` and the decode output is byte-identical to an
untraced run (pinned by ``tests/integration/test_perf_budget.py``).
"""

from repro.observability.events import EventLog
from repro.observability.export import (
    SLOThresholds,
    ServiceHealth,
    capture_health,
    parse_prometheus,
    render_prometheus,
    sanitize_metric_name,
    verify_roundtrip,
)
from repro.observability.manifest import (
    ManifestError,
    RunManifest,
    SCHEMA_VERSION,
    build_manifest,
    config_fingerprint,
    validate_manifest,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NULL_REGISTRY,
    SlidingWindow,
    TimingHistogram,
)
from repro.observability.report import diff_manifests, render_manifest
from repro.observability.trace import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    get_tracer,
    traced,
    use_tracer,
)

__all__ = [
    # trace
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanRecord",
    "get_tracer",
    "use_tracer",
    "traced",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "TimingHistogram",
    "SlidingWindow",
    "MetricRegistry",
    "NULL_REGISTRY",
    # manifest
    "RunManifest",
    "ManifestError",
    "SCHEMA_VERSION",
    "build_manifest",
    "config_fingerprint",
    "validate_manifest",
    # report
    "render_manifest",
    "diff_manifests",
    # events
    "EventLog",
    # export
    "render_prometheus",
    "parse_prometheus",
    "verify_roundtrip",
    "sanitize_metric_name",
    "ServiceHealth",
    "SLOThresholds",
    "capture_health",
]
