"""Structured request-tracing events for the serving plane.

Batch decodes leave :class:`~repro.observability.manifest.RunManifest`
snapshots; a *service* answering a stream of tickets needs per-request
evidence as well: when was a request submitted, which tick coalesced it,
did it hit the decoded-object cache, and how its latency split between
queue wait and decode work. :class:`EventLog` records those as JSON
lines — one self-describing object per line, the shape every log
shipper understands — in a bounded in-memory ring, optionally teeing to
a file as events happen.

The serving plane emits six event kinds (see
:class:`~repro.service.plane.StoreService`):

* ``submit`` — a ticket entered the queue (``request_id``,
  ``object_id``, ``queue_depth``);
* ``coalesce`` — a tick drained a window (``tick``, ``n_requests``,
  ``n_objects``);
* ``decode`` — an object's units went through the pipeline this tick
  (``tick``, ``object_id``, ``seconds``);
* ``cache_hit`` — an object was served entirely from cache (``tick``,
  ``object_id``);
* ``complete`` — a ticket was answered (``tick``, ``request_id``,
  ``object_id``, ``queue_wait_seconds``, ``decode_seconds``,
  ``seconds``, ``cache_hit``, ``clean``);
* ``error`` — a ticket's tick raised before answering it (``tick``,
  ``request_id``, ``object_id``, ``error`` (the exception type),
  ``message``).

Every record carries ``"t"``: seconds since the log was created
(monotonic clock), so intra-run ordering and spacing survive
serialization without wall-clock skew.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import IO, List, Optional


class EventLog:
    """A bounded ring of structured events, JSON-lines serializable.

    Args:
        path: when given, every event is also appended to this file as
            it is emitted (the live tail a log shipper follows); the
            in-memory ring is kept either way.
        capacity: ring size — the newest ``capacity`` events survive.
            Bounded by design: a service emitting forever must not grow
            the log without limit.
    """

    def __init__(self, path=None, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._records: deque = deque(maxlen=self.capacity)
        self._emitted = 0
        self._t0 = time.perf_counter()
        self._sink: Optional[IO[str]] = None
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            self._sink = self.path.open("a", encoding="utf-8")

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(list(self._records))

    @property
    def emitted(self) -> int:
        """Events emitted over the log's lifetime (ring drops count too)."""
        return self._emitted

    def emit(self, event: str, **fields) -> dict:
        """Record one event; returns the record dict."""
        record = {"event": str(event),
                  "t": round(time.perf_counter() - self._t0, 6)}
        record.update(fields)
        self._records.append(record)
        self._emitted += 1
        if self._sink is not None:
            self._sink.write(json.dumps(record, default=str) + "\n")
            self._sink.flush()
        return record

    def records(self, event: Optional[str] = None) -> List[dict]:
        """The retained records, optionally filtered by event kind."""
        if event is None:
            return list(self._records)
        return [r for r in self._records if r["event"] == event]

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(record, default=str) + "\n"
            for record in self._records
        )

    def save(self, path) -> Path:
        """Write the retained records as a JSON-lines file."""
        path = Path(path)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return path

    @staticmethod
    def load_jsonl(path) -> List[dict]:
        """Parse a JSON-lines event file back into record dicts."""
        return [
            json.loads(line)
            for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]

    def clear(self) -> None:
        self._records.clear()

    def close(self) -> None:
        """Close the file sink (the in-memory ring stays usable)."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None
