"""The decoded-object LRU cache fronting the serving plane.

Entries are whole :class:`~repro.core.store.ReadResult` objects — what
:meth:`~repro.core.store.DnaStore.read_many` answered for one object —
keyed by ``(object_id, epoch)``. An object is decoded whole whenever any
of it is missing, so it is cached and evicted whole too. Capacity, size
and evictions count *units*: a result's ``report.n_units``, read off the
store's columnar outcome without building a per-unit report, so a large
object costs what its units cost.

The epoch is the invalidation handle: :meth:`~repro.service.plane.
StoreService.put` bumps an object's epoch when its reads are replaced
(a store re-encode), so stale entries become unreachable immediately
and age out of the LRU naturally — :meth:`DecodedUnitCache.invalidate`
drops them eagerly as well.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.core.store import ReadResult


def _units(result: ReadResult) -> int:
    return result.report.n_units


class DecodedUnitCache:
    """A capacity-bounded LRU of decoded objects, sized in units.

    ``capacity`` counts *units*, not objects (a result's
    ``report.n_units``, which builds no per-unit report); an object with
    more units than the whole capacity is not stored, so ``capacity=0``
    disables caching entirely (every :meth:`get` misses, :meth:`put`
    stores nothing) — the throughput benchmark runs the plane this way
    so it measures coalescing, not cache hits.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Tuple, ReadResult]" = OrderedDict()
        self._size = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        """Units held."""
        return self._size

    def get(self, object_id, epoch: int) -> Optional[ReadResult]:
        """The cached :class:`~repro.core.store.ReadResult`, or ``None``
        on miss. Callers must not mutate it: the service answers with a
        copy of its ``bits``."""
        key = (object_id, epoch)
        result = self._entries.get(key)
        if result is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return result

    def put(self, object_id, epoch: int, result: ReadResult) -> None:
        """Store one decoded object, evicting LRU objects until its
        units fit."""
        units = _units(result)
        if units > self.capacity:
            return
        key = (object_id, epoch)
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._size -= _units(previous)
        self._entries[key] = result
        self._size += units
        while self._size > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            self._size -= _units(evicted)
            self.evictions += _units(evicted)

    def stats(self) -> dict:
        """Always-on cache statistics as a plain dict.

        Lifetime ``hits``/``misses`` (one per :meth:`get`, i.e. per
        object looked up) and ``evictions`` (units) totals, the current
        ``size``/``capacity`` in units, and the derived ``hit_rate``
        (0.0 before any lookup). No tracer required — these counters
        are maintained on every :meth:`get`/:meth:`put` regardless of
        observability state, and
        :meth:`~repro.service.plane.StoreService.health` folds them into
        its snapshot.
        """
        lookups = self.hits + self.misses
        return {
            "size": self._size,
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def invalidate(self, object_id) -> int:
        """Eagerly drop every entry of ``object_id`` (any epoch).

        The epoch bump already makes stale entries unreachable; eager
        removal frees their capacity immediately. Returns the number of
        units dropped.
        """
        stale = [key for key in self._entries if key[0] == object_id]
        dropped = sum(_units(self._entries.pop(key)) for key in stale)
        self._size -= dropped
        return dropped

    def clear(self) -> None:
        self._entries.clear()
        self._size = 0
