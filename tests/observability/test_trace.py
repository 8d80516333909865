"""Tracer, span-tree and thread-local activation semantics."""

import threading

import numpy as np
import pytest

from repro.observability import (
    NULL_TRACER,
    SpanRecord,
    Tracer,
    get_tracer,
    use_tracer,
)
from repro.observability.trace import _NULL_SPAN


class TestNullPath:
    def test_default_tracer_is_the_null_singleton(self):
        assert get_tracer() is NULL_TRACER
        assert not NULL_TRACER.is_recording

    def test_null_span_is_one_shared_object(self):
        a = NULL_TRACER.span("anything", rows=3)
        b = NULL_TRACER.span("else")
        assert a is b is _NULL_SPAN
        with a as span:
            span.set(ignored=1)  # no-op, no state

    def test_null_metrics_are_no_ops(self):
        NULL_TRACER.metrics.counter("x").add(5)
        NULL_TRACER.metrics.gauge("y").set(2)
        NULL_TRACER.metrics.histogram("z").observe("label")
        snapshot = NULL_TRACER.metrics.snapshot()
        assert snapshot == {"counters": {}, "gauges": {}, "histograms": {},
                            "timings": {}}


class TestActivation:
    def test_use_tracer_activates_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_use_tracer_nests(self):
        outer, inner = Tracer(), Tracer()
        with use_tracer(outer):
            with use_tracer(inner):
                assert get_tracer() is inner
            assert get_tracer() is outer

    def test_use_tracer_restores_after_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with use_tracer(tracer):
                raise RuntimeError("boom")
        assert get_tracer() is NULL_TRACER

    def test_activation_is_thread_local(self):
        tracer = Tracer()
        seen = {}

        def worker():
            seen["tracer"] = get_tracer()

        with use_tracer(tracer):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["tracer"] is NULL_TRACER


class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child.a"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("child.b"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert [c.name for c in root.children] == ["child.a", "child.b"]
        assert [c.name for c in root.children[0].children] == ["leaf"]

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots] == ["first", "second"]

    def test_durations_are_monotonic_and_inclusive(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.roots[0], tracer.roots[0].children[0]
        assert outer.seconds >= inner.seconds >= 0.0
        # One root span: the total is its duration, rounded to 9 places
        # as documented.
        assert tracer.total_seconds() == round(outer.seconds, 9)

    def test_attributes_at_open_and_mid_span(self):
        tracer = Tracer()
        with tracer.span("stage", rows=np.int64(12)) as span:
            span.set(dirty=np.int32(3), note="ok")
        record = tracer.roots[0]
        # numpy scalars are coerced to plain ints for JSON-readiness.
        assert record.attributes == {"rows": 12, "dirty": 3, "note": "ok"}
        assert isinstance(record.attributes["rows"], int)

    def test_exception_closes_the_whole_stack(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("unwind")
        assert tracer.roots[0].t_end is not None
        assert tracer.roots[0].children[0].t_end is not None
        # The tracer is reusable afterwards: new spans become new roots.
        with tracer.span("after"):
            pass
        assert [r.name for r in tracer.roots] == ["outer", "after"]

    def test_find_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("target", which="first"):
                pass
        with tracer.span("target", which="second"):
            pass
        assert tracer.find("target").attributes["which"] == "first"
        assert tracer.find("missing") is None

    def test_stage_totals_aggregate_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("stage"):
                with tracer.span("sub"):
                    pass
        totals = tracer.stage_totals()
        assert totals["stage"]["calls"] == 3
        assert totals["sub"]["calls"] == 3
        assert totals["stage"]["seconds"] >= totals["sub"]["seconds"]

    def test_open_span_reports_zero_seconds(self):
        record = SpanRecord(name="open", t_start=1.0)
        assert record.seconds == 0.0

    def test_to_dict_shape(self):
        tracer = Tracer()
        with tracer.span("root", n=np.int64(2)):
            with tracer.span("child"):
                pass
        data = tracer.roots[0].to_dict()
        assert data["name"] == "root"
        assert data["attributes"] == {"n": 2}
        assert data["seconds"] >= 0
        assert data["children"][0]["name"] == "child"
