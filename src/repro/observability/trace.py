"""Nested wall-clock spans with a thread-local active tracer.

Instrumented hot paths ask :func:`get_tracer` for the thread's active
tracer and open stage spans on it::

    tracer = get_tracer()
    with tracer.span("rs.correct", n_units=n_units) as span:
        ...
        span.set(n_retry_rows=retry.size)

When no tracer is active, :func:`get_tracer` returns the shared
:data:`NULL_TRACER` whose :meth:`~NullTracer.span` hands back one
preallocated no-op context manager — the entire cost of an untraced
stage is a thread-local read plus two trivial method calls, which is why
the instrumentation can live inside the decode path permanently (the
<5% budget is pinned by ``tests/integration/test_perf_budget.py``).

Spans are recorded on monotonic clocks (``time.perf_counter``), nest via
an explicit stack (so sibling stages attach to the right parent), and
carry a free-form attribute dict (batch rows, cluster counts, dirty
codewords...). The tracer also owns a
:class:`~repro.observability.metrics.MetricRegistry` so counters emitted
mid-span land in the same run record (pass ``metrics=`` to share a
registry, e.g. a service's always-on one). Nothing builds a manifest
behind the caller's back: whoever wants a
:class:`~repro.observability.manifest.RunManifest` builds one from the
tracer with :func:`~repro.observability.manifest.build_manifest`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.observability.metrics import MetricRegistry, NULL_REGISTRY


@dataclass
class SpanRecord:
    """One finished (or still-open) span.

    Attributes:
        name: stage name (dotted, e.g. ``"rs.decode_many"``).
        t_start: ``perf_counter`` at entry.
        t_end: ``perf_counter`` at exit (``None`` while open).
        attributes: free-form span attributes.
        children: nested spans, in start order.
    """

    name: str
    t_start: float
    t_end: Optional[float] = None
    attributes: Dict[str, object] = field(default_factory=dict)
    children: List["SpanRecord"] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Wall-clock duration (0.0 while the span is still open)."""
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    def set(self, **attributes) -> None:
        """Attach attributes to the span (usable mid-span)."""
        self.attributes.update(attributes)

    def find(self, name: str) -> Optional["SpanRecord"]:
        """First span named ``name`` in this subtree (depth-first)."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def to_dict(self) -> dict:
        """JSON-ready form (attributes coerced to plain types)."""
        return {
            "name": self.name,
            "seconds": round(self.seconds, 9),
            "attributes": {k: _plain(v) for k, v in self.attributes.items()},
            "children": [child.to_dict() for child in self.children],
        }


def _plain(value):
    """Coerce numpy scalars (the usual attribute payload) to JSON types."""
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (AttributeError, ValueError):
            pass
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


class _OpenSpan:
    """Context-manager handle over one :class:`SpanRecord`."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def set(self, **attributes) -> None:
        self.record.set(**attributes)

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._finish(self.record)


class _NullSpan:
    """The shared no-op span handle: reusable, stateless, allocation-free."""

    __slots__ = ()

    def set(self, **attributes) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default inactive tracer: every operation is a no-op.

    ``is_recording`` is False so callers can skip work that only a
    recording tracer would keep.
    """

    __slots__ = ()

    is_recording = False
    metrics = NULL_REGISTRY

    def span(self, name: str, **attributes) -> _NullSpan:
        return _NULL_SPAN


NULL_TRACER = NullTracer()


class Tracer:
    """A recording tracer: span tree + metric registry.

    Not thread-safe by design — activate one tracer per thread (the
    active-tracer slot itself is thread-local).
    """

    is_recording = True

    def __init__(self, metrics: Optional[MetricRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.roots: List[SpanRecord] = []
        #: Free-form run context callers stuff seeds/config identifiers
        #: into; :func:`~repro.observability.manifest.build_manifest`
        #: copies it into the manifest.
        self.context: Dict[str, object] = {}
        self._stack: List[SpanRecord] = []
        # Stage totals are accumulated incrementally as spans close so
        # stage_totals() stays O(#stages) however many spans a long run
        # records (a caller may build a manifest after every decode of
        # a loop — walking the whole forest each time would be
        # quadratic).
        self._stage_totals: Dict[str, Dict[str, float]] = {}
        self._root_seconds = 0.0

    def span(self, name: str, **attributes) -> _OpenSpan:
        """Open a span; attaches to the innermost open span, else a root."""
        record = SpanRecord(
            name=name,
            t_start=time.perf_counter(),
            attributes={k: _plain(v) for k, v in attributes.items()},
        )
        if self._stack:
            self._stack[-1].children.append(record)
        else:
            self.roots.append(record)
        self._stack.append(record)
        return _OpenSpan(self, record)

    def _finish(self, record: SpanRecord) -> None:
        if record.t_end is not None:
            return  # already closed by an outer span's unwind
        record.t_end = time.perf_counter()
        # Tolerate exceptions unwinding through several spans: pop up to
        # and including the finished record.
        while self._stack:
            top = self._stack.pop()
            if top is record:
                self._account(record)
                break
            if top.t_end is None:
                top.t_end = record.t_end
            self._account(top)
        if not self._stack:
            self._root_seconds += record.seconds

    def _account(self, record: SpanRecord) -> None:
        entry = self._stage_totals.setdefault(
            record.name, {"seconds": 0.0, "calls": 0}
        )
        entry["seconds"] += record.seconds
        entry["calls"] += 1

    def find(self, name: str) -> Optional[SpanRecord]:
        """First span named ``name`` across all roots (depth-first)."""
        for root in self.roots:
            found = root.find(name)
            if found is not None:
                return found
        return None

    def stage_totals(self) -> Dict[str, Dict[str, float]]:
        """Aggregate wall time and call count per *closed* span name.

        Every span contributes its own (inclusive) duration under its
        name, so nested stages report their usual meaning: ``receive``
        includes the ``consensus`` call it makes, and the two can still
        be compared because both are totaled separately. Returns fresh
        dicts — safe to embed in a manifest while the tracer keeps
        recording.
        """
        return {
            name: {"seconds": round(entry["seconds"], 9),
                   "calls": entry["calls"]}
            for name, entry in self._stage_totals.items()
        }

    def total_seconds(self) -> float:
        """Summed wall time of the closed root spans (the run's traced
        time)."""
        return round(self._root_seconds, 9)


_state = threading.local()


def get_tracer():
    """The thread's active tracer, or :data:`NULL_TRACER` when none is."""
    return getattr(_state, "tracer", NULL_TRACER)


def _deactivate() -> None:
    if hasattr(_state, "tracer"):
        del _state.tracer


@contextmanager
def use_tracer(tracer: Tracer):
    """Activate ``tracer`` for the current thread within the block."""
    previous = getattr(_state, "tracer", None)
    _state.tracer = tracer
    try:
        yield tracer
    finally:
        if previous is None:
            _deactivate()
        else:
            _state.tracer = previous
