"""EventLog: bounded ring, JSON-lines serialization, file sink."""

import json

import pytest

from repro.observability import EventLog


class TestRing:
    def test_emit_records_event_and_monotonic_offset(self):
        log = EventLog()
        first = log.emit("submit", request_id=0, object_id="a")
        second = log.emit("submit", request_id=1, object_id="b")
        assert first["event"] == "submit"
        assert first["request_id"] == 0
        assert second["t"] >= first["t"] >= 0.0

    def test_capacity_bounds_the_ring(self):
        log = EventLog(capacity=3)
        for i in range(10):
            log.emit("submit", request_id=i)
        assert len(log) == 3
        assert [r["request_id"] for r in log.records()] == [7, 8, 9]
        assert log.emitted == 10  # lifetime count survives the drops

    def test_records_filter(self):
        log = EventLog()
        log.emit("submit", request_id=0)
        log.emit("complete", request_id=0)
        log.emit("submit", request_id=1)
        assert [r["request_id"] for r in log.records("submit")] == [0, 1]
        assert [r["event"] for r in log.records()] \
            == ["submit", "complete", "submit"]

    def test_clear_keeps_lifetime_count(self):
        log = EventLog()
        log.emit("submit")
        log.clear()
        assert len(log) == 0
        assert log.emitted == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)


class TestSerialization:
    def test_jsonl_round_trip(self, tmp_path):
        log = EventLog()
        log.emit("submit", request_id=0, object_id="obj0", queue_depth=1)
        log.emit("complete", request_id=0, object_id="obj0",
                 cache_hit=False, clean=True, seconds=0.01)
        path = log.save(tmp_path / "events.jsonl")
        loaded = EventLog.load_jsonl(path)
        assert [r["event"] for r in loaded] == ["submit", "complete"]
        assert loaded[1]["clean"] is True
        assert loaded[1]["seconds"] == 0.01

    def test_each_line_is_self_describing_json(self):
        log = EventLog()
        log.emit("coalesce", tick=0, n_requests=4, n_objects=2)
        lines = log.to_jsonl().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["event"] == "coalesce"
        assert record["n_requests"] == 4
        assert "t" in record

    def test_non_json_fields_fall_back_to_str(self):
        class Oid:
            def __str__(self):
                return "oid-7"

        log = EventLog()
        log.emit("submit", object_id=Oid())
        record = json.loads(log.to_jsonl())
        assert record["object_id"] == "oid-7"


class TestFileSink:
    def test_sink_appends_as_events_happen(self, tmp_path):
        path = tmp_path / "live.jsonl"
        log = EventLog(path=path)
        log.emit("submit", request_id=0)
        # Flushed immediately: a tailing log shipper sees it now.
        assert len(path.read_text().splitlines()) == 1
        log.emit("complete", request_id=0)
        assert len(path.read_text().splitlines()) == 2
        log.close()
        assert [r["event"] for r in EventLog.load_jsonl(path)] == [
            "submit", "complete",
        ]

    def test_sink_survives_ring_eviction(self, tmp_path):
        path = tmp_path / "live.jsonl"
        log = EventLog(path=path, capacity=2)
        for i in range(5):
            log.emit("submit", request_id=i)
        log.close()
        assert len(EventLog.load_jsonl(path)) == 5  # file keeps them all
        assert len(log) == 2

    def test_close_keeps_ring_usable(self, tmp_path):
        log = EventLog(path=tmp_path / "x.jsonl")
        log.emit("submit")
        log.close()
        log.emit("complete")  # no sink anymore, ring still records
        assert len(log) == 2
