"""The request-queue serving plane: coalesce, decode once, answer many.

:class:`StoreService` models the paper's random-access workload (many
users each pulling one object out of a shared pool) as a queue in front
of one :class:`~repro.core.store.DnaStore`. Readable objects are
registered once with :meth:`StoreService.put`; users enqueue tickets
with :meth:`StoreService.submit`; each :meth:`StoreService.tick` drains
up to ``batch_window`` tickets and serves them all through **one**
coalesced decode — duplicate requests for the same object collapse to
one decode, all distinct objects' units merge into one spanning
consensus pass and one batched RS errata pass (the
:meth:`~repro.core.store.DnaStore.read_many` engine), and objects whose
units are resident in the :class:`~repro.service.cache.DecodedUnitCache`
skip the pipeline entirely.

The tick loop is traced (``service.tick`` spans, ``service.*``
counters, a run manifest per tick when a recording tracer is active),
so serving runs leave the same machine-checkable evidence as decode
runs. Independently of any tracer, the plane keeps *always-on* live
telemetry: its own :class:`~repro.observability.metrics.MetricRegistry`
(request/answer/error counters, queue-depth gauge,
request/queue-wait/decode timing histograms, clean-vs-failed-vs-error
outcomes), a structured :class:`~repro.observability.events.EventLog`
(submit / coalesce / decode / cache_hit / complete / error records
keyed by monotonically assigned request ids), and a
:class:`~repro.observability.metrics.SlidingWindow`
so :meth:`StoreService.health` reports rates and latency quantiles over
the recent window rather than process lifetime. The ``NullTracer``
decode path is untouched — the always-on instruments live beside it,
not inside it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

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


@dataclass
class _CatalogEntry:
    """One readable object: its read material and decode options."""

    reads: object
    n_data_bits: int
    pool: bool
    ranking: object
    confidence_threshold: Optional[float]
    clusterer: object
    epoch: int


class StoreService:
    """A coalescing read queue + decoded-unit cache over one store.

    Args:
        store: the :class:`~repro.core.store.DnaStore` to serve from.
        cache_capacity: decoded-unit LRU capacity (unit entries;
            ``0`` disables caching).
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
        self._catalog: Dict[object, _CatalogEntry] = {}
        self._queue: List[tuple] = []  # (ticket, object_id, t_submit)
        self._next_ticket = 0
        self._next_tick = 0
        self._seen_evictions = 0
        self._t_started = time.perf_counter()

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
        epoch bumps and every cached unit of the object is invalidated,
        so the next read decodes the new material.
        """
        previous = self._catalog.get(object_id)
        epoch = 0 if previous is None else previous.epoch + 1
        if previous is not None:
            self.cache.invalidate(object_id)
        self._catalog[object_id] = _CatalogEntry(
            reads=reads, n_data_bits=n_data_bits, pool=pool,
            ranking=ranking, confidence_threshold=confidence_threshold,
            clusterer=clusterer, epoch=epoch,
        )
        return epoch

    def invalidate(self, object_id) -> int:
        """Drop an object's cached units without replacing its reads."""
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

        tracer = get_tracer()
        with tracer.span(
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
            if tracer.is_recording:
                metrics = tracer.metrics
                metrics.counter("service.requests").add(len(drained))
                metrics.counter("service.ticks").add(1)
                metrics.counter("service.cache_unit_hits").add(unit_hits)
                metrics.counter("service.cache_unit_misses").add(unit_misses)
                metrics.gauge("service.queue_depth").set(len(self._queue))

        # Always-on tick accounting on the service's own registry — the
        # tracer above may be the NullTracer; these run regardless.
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
        m.gauge("service.queue_depth").set(len(self._queue))
        m.gauge("service.cache_size").set(len(self.cache))

        self.store._emit_manifest(tracer, "service.tick")
        return answers

    def _serve_window(self, drained, tick_index: int):
        """Decode a drained window; returns (answers, n_objects,
        unit cache hits, unit cache misses)."""
        t_drain = time.perf_counter()
        distinct: List = []
        for _, object_id, _ in drained:
            if object_id not in distinct:
                distinct.append(object_id)
        self.events.emit(
            "coalesce", tick=tick_index, n_requests=len(drained),
            n_objects=len(distinct),
        )

        cached: Dict[object, list] = {}
        missing: List = []
        unit_hits = 0
        unit_misses = 0
        for object_id in distinct:
            entry = self._catalog[object_id]
            n_units = self.store.units_needed(entry.n_data_bits)
            units = [
                self.cache.get(object_id, u, entry.epoch)
                for u in range(n_units)
            ]
            found = sum(unit is not None for unit in units)
            unit_hits += found
            unit_misses += n_units - found
            if found == n_units:
                cached[object_id] = units
            else:
                # Partial residency (LRU evicted some units) re-decodes
                # the whole object — the spanning batch is per object,
                # and whole-object refill restores full residency.
                missing.append(object_id)

        decoded: Dict[object, tuple] = {}
        decode_seconds = 0.0
        if missing:
            requests = [
                ReadRequest(
                    reads=self._catalog[oid].reads,
                    n_data_bits=self._catalog[oid].n_data_bits,
                    pool=self._catalog[oid].pool,
                    ranking=self._catalog[oid].ranking,
                    confidence_threshold=(
                        self._catalog[oid].confidence_threshold
                    ),
                    clusterer=self._catalog[oid].clusterer,
                    object_id=oid,
                )
                for oid in missing
            ]
            t_decode = time.perf_counter()
            served = self.store._read_many_impl(requests)
            decode_seconds = time.perf_counter() - t_decode
            self.metrics.timing("service.decode_seconds").observe(
                decode_seconds
            )
            for oid, (bits, report, corrected) in zip(missing, served):
                decoded[oid] = (bits, report)
                epoch = self._catalog[oid].epoch
                for u, unit_entry in enumerate(corrected):
                    self.cache.put(oid, u, epoch, unit_entry)
                # The decode is coalesced (one spanning pass for every
                # missing object), so each object reports the shared
                # batch wall time.
                self.events.emit(
                    "decode", tick=tick_index, object_id=oid,
                    seconds=round(decode_seconds, 9),
                )
        for object_id in cached:
            self.events.emit(
                "cache_hit", tick=tick_index, object_id=object_id,
            )

        answers = []
        outcomes = self.metrics.histogram("service.read_outcomes")
        request_timing = self.metrics.timing("service.request_seconds")
        wait_timing = self.metrics.timing("service.queue_wait_seconds")
        now = time.perf_counter()
        for ticket, object_id, t_submit in drained:
            entry = self._catalog[object_id]
            if object_id in decoded:
                bits, report = decoded[object_id]
                hit = False
            else:
                bits, report = self.store._assemble_bits(
                    cached[object_id], entry.n_data_bits, entry.ranking
                )
                hit = True
            seconds = now - t_submit
            queue_wait = max(t_drain - t_submit, 0.0)
            answers.append(ReadResult(
                bits=bits, report=report, object_id=object_id,
                request_id=ticket, cache_hit=hit, seconds=seconds,
            ))
            request_timing.observe(seconds)
            wait_timing.observe(queue_wait)
            outcomes.observe("clean" if report.clean else "failed")
            self.events.emit(
                "complete", tick=tick_index, request_id=ticket,
                object_id=object_id,
                queue_wait_seconds=round(queue_wait, 9),
                decode_seconds=round(0.0 if hit else decode_seconds, 9),
                seconds=round(seconds, 9),
                cache_hit=hit, clean=report.clean,
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
        interval, so rates and latency quantiles cover the span since
        the previous ``health()`` call (up to ``window_intervals`` calls
        back), not process lifetime. When a recording tracer is active
        its ``rs.failure_reasons`` histogram is folded in, so the
        snapshot reports *why* decodes failed, not just that they did.
        """
        if roll:
            self.window.roll()
        snapshot = self.metrics.snapshot()
        tracer = get_tracer()
        if tracer.is_recording:
            reasons = tracer.metrics.snapshot().get("histograms", {}).get(
                "rs.failure_reasons"
            )
            if reasons:
                snapshot["histograms"]["rs.failure_reasons"] = reasons
        return capture_health(
            snapshot,
            queue_depth=len(self._queue),
            cache_stats=self.cache.stats(),
            window=self.window,
            slo=slo if slo is not None else self.slo,
            elapsed_seconds=time.perf_counter() - self._t_started,
        )
