"""The request-queue serving plane: coalesce, decode once, answer many.

:class:`StoreService` models the paper's random-access workload (many
users each pulling one object out of a shared pool) as a queue in front
of one :class:`~repro.core.store.DnaStore`, and uses only the store's
public surface. Readable objects are registered once with
:meth:`StoreService.put`, which keeps each object's
:class:`~repro.core.store.ReadRequest` after
:meth:`~repro.core.store.DnaStore.check` accepts it; users enqueue
tickets with :meth:`StoreService.submit`; each :meth:`StoreService.tick`
drains up to ``batch_window`` tickets and serves them all through
**one** :meth:`~repro.core.store.DnaStore.read_many` call — duplicate
requests for the same object collapse to one decode, all distinct
objects' units merge into one spanning consensus pass and one batched
RS errata pass, and objects whose decoded result is resident in the
:class:`~repro.service.cache.DecodedUnitCache` skip the pipeline
entirely.

The tick loop is traced (``service.tick`` spans with the window's
object and cache counts). Independently of any tracer, the plane keeps
*always-on* live telemetry, and it is the one home of the ``service.*``
metrics: its own :class:`~repro.observability.metrics.MetricRegistry`
(request/answer/error/tick counters, unit cache hits and misses,
cache evictions and refused admissions, queue-depth and cache-size
gauges, request/queue-wait/decode timing histograms,
clean-vs-failed-vs-error outcomes), a structured
:class:`~repro.observability.events.EventLog` (submit / coalesce /
decode / cache_hit / complete / error records keyed by monotonically
assigned request ids), and a
:class:`~repro.observability.metrics.SlidingWindow` so
:meth:`StoreService.health` reports rates, latency quantiles and the
failure rate over the recent window rather than process lifetime. A
caller who wants the ``service.*`` counters in a run manifest traces
with ``Tracer(metrics=service.metrics)`` and builds the manifest with
:func:`~repro.observability.manifest.build_manifest`. The
``NullTracer`` decode path is untouched — the always-on instruments
live beside it, not inside it.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Tuple

from repro.core.store import DnaStore, ReadRequest, ReadResult
from repro.observability.events import EventLog
from repro.observability.export import (
    ServiceHealth,
    SLOThresholds,
    capture_health,
)
from repro.observability.metrics import MetricRegistry, SlidingWindow
from repro.observability.trace import get_tracer
from repro.service.cache import DecodedUnitCache


class StoreService:
    """A coalescing read queue + decoded-object cache over one store.

    Args:
        store: the :class:`~repro.core.store.DnaStore` to serve from.
        cache_capacity: capacity of the decoded-object cache (an LRU
            that admits a new object only over objects looked up no more
            often), counted in units (``0`` disables caching).
        batch_window: max tickets drained per :meth:`tick`
            (``None`` = drain everything). The throughput benchmark
            sweeps this knob: window 1 degenerates to one decode per
            request, larger windows amortize the consensus and errata
            passes across more requests.
        event_log: the structured event log to emit into — bring one
            with a file sink to tee events to disk as they happen;
            defaults to an in-memory ring.
        window_intervals: ring length of the sliding-window aggregator
            behind :meth:`health` (each :meth:`health` call closes one
            interval).
        slo: default :class:`~repro.observability.export.SLOThresholds`
            for :meth:`health` verdicts (``None`` = library defaults).

    Attributes:
        metrics: the always-on :class:`MetricRegistry` — populated on
            every submit/tick with no tracer required.
        events: the always-on :class:`EventLog`.
        window: the :class:`SlidingWindow` over ``metrics``.
    """

    def __init__(
        self,
        store: DnaStore,
        cache_capacity: int = 1024,
        batch_window: Optional[int] = None,
        event_log: Optional[EventLog] = None,
        window_intervals: int = 12,
        slo: Optional[SLOThresholds] = None,
    ) -> None:
        if batch_window is not None and batch_window < 1:
            raise ValueError(
                f"batch_window must be positive, got {batch_window}"
            )
        self.store = store
        self.cache = DecodedUnitCache(cache_capacity)
        self.batch_window = batch_window
        self.metrics = MetricRegistry()
        self.events = event_log if event_log is not None else EventLog()
        self.window = SlidingWindow(self.metrics, n_intervals=window_intervals)
        self.slo = slo
        # object_id -> (its ReadRequest, its epoch)
        self._catalog: Dict[object, Tuple[ReadRequest, int]] = {}
        self._queue: List[tuple] = []  # (ticket, object_id, t_submit)
        self._next_ticket = 0
        self._next_tick = 0
        # Cache totals already added to service.cache_evictions and
        # service.cache_rejections.
        self._seen_evictions = 0
        self._seen_rejected = 0

    # -- catalog -------------------------------------------------------------

    def put(
        self,
        object_id,
        reads,
        n_data_bits: int,
        pool: bool = False,
        ranking=None,
        confidence_threshold: Optional[float] = None,
        clusterer=None,
    ) -> int:
        """Register (or replace) a readable object; returns its epoch.

        Re-putting an existing ``object_id`` is the re-encode path: the
        epoch bumps and the object's cached result is invalidated, so
        the next read decodes the new material.

        The object's :class:`~repro.core.store.ReadRequest` passes
        :meth:`~repro.core.store.DnaStore.check` first — the same check a
        decode runs — so a malformed object raises here, naming the
        field, and leaves the catalog and the cache as they were.
        """
        request = ReadRequest(
            reads, n_data_bits, pool=pool, ranking=ranking,
            confidence_threshold=confidence_threshold, clusterer=clusterer,
            object_id=object_id,
        )
        self.store.check(request)
        previous = self._catalog.get(object_id)
        epoch = 0 if previous is None else previous[1] + 1
        if previous is not None:
            self.cache.invalidate(object_id)
        self._catalog[object_id] = (request, epoch)
        return epoch

    def invalidate(self, object_id) -> int:
        """Drop an object's cached result without replacing its reads;
        returns the number of units freed."""
        return self.cache.invalidate(object_id)

    # -- the queue -----------------------------------------------------------

    def submit(self, object_id) -> int:
        """Enqueue one read of ``object_id``; returns the ticket number.

        Tickets are answered in submission order by a later
        :meth:`tick`; many tickets for the same object in one window
        share a single decode. The ticket number is the request id: it
        tags the ``submit``/``complete`` events and comes back as
        :attr:`~repro.core.store.ReadResult.request_id` on the answer.
        """
        if object_id not in self._catalog:
            raise KeyError(f"unknown object {object_id!r}; put() it first")
        ticket = self._next_ticket
        self._next_ticket += 1
        self._queue.append((ticket, object_id, time.perf_counter()))
        self.metrics.counter("service.submits").add(1)
        self.metrics.gauge("service.queue_depth").set(len(self._queue))
        self.events.emit(
            "submit", request_id=ticket, object_id=object_id,
            queue_depth=len(self._queue),
        )
        return ticket

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- the tick loop -------------------------------------------------------

    def tick(self) -> List[ReadResult]:
        """Serve up to ``batch_window`` queued tickets in one decode.

        Returns one :class:`~repro.core.store.ReadResult` per drained
        ticket, in submission order (``seconds`` spans submit →
        completion, queue wait included). An empty queue is a no-op
        returning ``[]``. All pipeline work of the tick is coalesced:
        at most one spanning consensus pass and one batched RS errata
        pass, however many tickets drain; a tick whose objects are all
        cache-resident performs no pipeline work at all.

        When the window's decode raises, every drained ticket gets an
        ``error`` event and an ``error`` read outcome (so :meth:`health`
        counts it as a failure) and adds to the ``service.errors``
        counter; then the exception propagates.
        """
        if not self._queue:
            return []
        window = self.batch_window or len(self._queue)
        drained = self._queue[:window]
        del self._queue[:window]
        tick_index = self._next_tick
        self._next_tick += 1

        with get_tracer().span(
            "service.tick",
            n_requests=len(drained),
            queue_depth=len(self._queue),
            batch_window=self.batch_window or 0,
        ) as span:
            try:
                answers, n_objects, unit_hits, unit_misses = \
                    self._serve_window(drained, tick_index)
            except Exception as error:
                # The drained tickets are off the queue: account for
                # every one of them as an error before re-raising.
                self.metrics.counter("service.errors").add(len(drained))
                outcomes = self.metrics.histogram("service.read_outcomes")
                for ticket, object_id, _ in drained:
                    outcomes.observe("error")
                    self.events.emit(
                        "error", tick=tick_index, request_id=ticket,
                        object_id=object_id, error=type(error).__name__,
                        message=str(error),
                    )
                raise
            span.set(
                n_objects=n_objects,
                cache_unit_hits=unit_hits,
                cache_unit_misses=unit_misses,
            )

        m = self.metrics
        m.counter("service.requests").add(len(drained))
        m.counter("service.ticks").add(1)
        m.counter("service.answers").add(len(answers))
        m.counter("service.cache_unit_hits").add(unit_hits)
        m.counter("service.cache_unit_misses").add(unit_misses)
        evicted = self.cache.evictions - self._seen_evictions
        if evicted:
            m.counter("service.cache_evictions").add(evicted)
            self._seen_evictions = self.cache.evictions
        rejected = self.cache.rejected - self._seen_rejected
        if rejected:
            m.counter("service.cache_rejections").add(rejected)
            self._seen_rejected = self.cache.rejected
        m.gauge("service.queue_depth").set(len(self._queue))
        m.gauge("service.cache_size").set(len(self.cache))
        return answers

    def _serve_window(self, drained, tick_index: int):
        """Decode a drained window; returns (answers, n_objects,
        unit cache hits, unit cache misses)."""
        t_drain = time.perf_counter()
        distinct = list(dict.fromkeys(oid for _, oid, _ in drained))
        self.events.emit(
            "coalesce", tick=tick_index, n_requests=len(drained),
            n_objects=len(distinct),
        )

        results: Dict[object, ReadResult] = {}
        missing: List = []
        unit_hits = 0
        unit_misses = 0
        for object_id in distinct:
            request, epoch = self._catalog[object_id]
            n_units = self.store.units_needed(request.n_data_bits)
            result = self.cache.get(object_id, epoch)
            if result is None:
                missing.append(object_id)
                unit_misses += n_units
            else:
                results[object_id] = result
                unit_hits += n_units
        hits = list(results)

        decode_seconds = 0.0
        if missing:
            t_decode = time.perf_counter()
            decoded = self.store.read_many(
                [self._catalog[object_id][0] for object_id in missing]
            )
            decode_seconds = time.perf_counter() - t_decode
            self.metrics.timing("service.decode_seconds").observe(
                decode_seconds
            )
            for object_id, result in zip(missing, decoded):
                results[object_id] = result
                self.cache.put(object_id, self._catalog[object_id][1], result)
                # The decode is coalesced (one spanning pass for every
                # missing object), so each object reports the shared
                # batch wall time.
                self.events.emit(
                    "decode", tick=tick_index, object_id=object_id,
                    seconds=round(decode_seconds, 9),
                )
        for object_id in hits:
            self.events.emit(
                "cache_hit", tick=tick_index, object_id=object_id,
            )

        answers = []
        outcomes = self.metrics.histogram("service.read_outcomes")
        request_timing = self.metrics.timing("service.request_seconds")
        wait_timing = self.metrics.timing("service.queue_wait_seconds")
        now = time.perf_counter()
        cached = set(hits)
        for ticket, object_id, t_submit in drained:
            result = results[object_id]
            hit = object_id in cached
            seconds = now - t_submit
            queue_wait = max(t_drain - t_submit, 0.0)
            # Each answer owns its bits: mutating one changes neither the
            # cached result nor another ticket's answer.
            answers.append(dataclasses.replace(
                result, bits=result.bits.copy(), request_id=ticket,
                cache_hit=hit, seconds=seconds,
            ))
            request_timing.observe(seconds)
            wait_timing.observe(queue_wait)
            outcomes.observe("clean" if result.clean else "failed")
            self.events.emit(
                "complete", tick=tick_index, request_id=ticket,
                object_id=object_id,
                queue_wait_seconds=round(queue_wait, 9),
                decode_seconds=round(0.0 if hit else decode_seconds, 9),
                seconds=round(seconds, 9),
                cache_hit=hit, clean=result.clean,
            )
        return answers, len(distinct), unit_hits, unit_misses

    # -- live telemetry ------------------------------------------------------

    def health(
        self,
        slo: Optional[SLOThresholds] = None,
        roll: bool = True,
    ) -> ServiceHealth:
        """One :class:`ServiceHealth` snapshot of the plane right now.

        Each call (with ``roll`` left on) closes one sliding-window
        interval, so rates, latency quantiles and the failure rate cover
        the span since the previous ``health()`` call (up to
        ``window_intervals`` calls back), not process lifetime. To see
        *why* decodes failed, trace with ``Tracer(metrics=service.metrics)``:
        the pipeline's ``rs.failure_reasons`` histogram then lands in the
        window too.
        """
        if roll:
            self.window.roll()
        return capture_health(
            window=self.window,
            cache_stats=self.cache.stats(),
            queue_depth=len(self._queue),
            slo=slo if slo is not None else self.slo,
        )
