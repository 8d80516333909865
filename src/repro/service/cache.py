"""The decoded-object cache fronting the serving plane.

Entries are whole :class:`~repro.core.store.ReadResult` objects — what
:meth:`~repro.core.store.DnaStore.read_many` answered for one object —
keyed by ``(object_id, epoch)``. An object is decoded whole whenever any
of it is missing, so it is cached and evicted whole too. Capacity, size
and evictions count *units*: a result's ``report.n_units``, read off the
store's columnar outcome without building a per-unit report, so a large
object costs what its units cost.

Eviction is least-recently-used, behind a frequency filter on admission
(TinyLFU: Einziger, Friedman & Manes, ACM TOS 2017). Every lookup counts
towards its object, and a new result that would evict an object looked
up more often than itself is not stored. Under skewed traffic a one-off
object therefore cannot push a popular one out, which a plain LRU lets
every tail miss do. Counts saturate at :data:`MAX_COUNT` and all halve
every :data:`SAMPLE_PER_UNIT` ``× capacity`` lookups, so the filter
follows a popularity order that drifts. It follows slowly: when the
whole order reshuffles more often than about once per halving period,
fresh objects wait behind stale counts and the hit rate falls below a
plain LRU's (on serve's traffic shape reshuffled every 1,600 requests,
0.48 against 0.56).

The epoch is the invalidation handle: :meth:`~repro.service.plane.
StoreService.put` bumps an object's epoch when its reads are replaced
(a store re-encode), so stale entries become unreachable immediately
and age out of the LRU naturally — :meth:`DecodedUnitCache.invalidate`
drops them eagerly as well. Counts are keyed by ``object_id`` alone, so
an object's popularity survives its re-encode.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.core.store import ReadResult

#: Lookup counts saturate here: TinyLFU's 4-bit counters. A cap keeps
#: a long-popular object from outliving its popularity by many halvings.
MAX_COUNT = 15
#: Every count halves after this many lookups per unit of capacity
#: (TinyLFU's sample size of ten times the cache).
SAMPLE_PER_UNIT = 10


def _units(result: ReadResult) -> int:
    return result.report.n_units


class DecodedUnitCache:
    """A capacity-bounded LRU of decoded objects, sized in units, that
    admits a new object only over objects looked up no more often.

    ``capacity`` counts *units*, not objects (a result's
    ``report.n_units``, which builds no per-unit report); an object with
    more units than the whole capacity is not stored, so ``capacity=0``
    disables caching entirely (every :meth:`get` misses, :meth:`put`
    stores nothing, no counts are kept) — the throughput benchmark runs
    the plane this way so it measures coalescing, not cache hits.

    Every :meth:`get` adds one to its object's lookup count. A
    :meth:`put` that has to evict walks its would-be victims from the
    least-recently-used end, and stores nothing when any of them has a
    strictly higher count than the new object. Ties admit, so with equal
    counts (no lookups at all, say) the cache is a plain LRU. Counts
    saturate at :data:`MAX_COUNT`, halve every ``SAMPLE_PER_UNIT ×
    capacity`` lookups and are dropped at zero, so the count table never
    holds more than ``2 × SAMPLE_PER_UNIT × capacity`` objects.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Tuple, ReadResult]" = OrderedDict()
        self._size = 0
        self._counts: Dict[object, int] = {}
        self._lookups = 0  # since the last halving
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected = 0

    def __len__(self) -> int:
        """Units held."""
        return self._size

    def get(self, object_id, epoch: int) -> Optional[ReadResult]:
        """The cached :class:`~repro.core.store.ReadResult`, or ``None``
        on miss. Either way the lookup counts towards ``object_id``.
        Callers must not mutate the result: the service answers with a
        copy of its ``bits``."""
        if self.capacity:
            self._count(object_id)
        key = (object_id, epoch)
        result = self._entries.get(key)
        if result is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return result

    def _count(self, object_id) -> None:
        counts = self._counts
        count = counts.get(object_id, 0)
        if count < MAX_COUNT:
            counts[object_id] = count + 1
        self._lookups += 1
        if self._lookups >= SAMPLE_PER_UNIT * self.capacity:
            # Halving at least halves the sum of the counts, so that sum,
            # which bounds the table, never exceeds 2 × SAMPLE_PER_UNIT ×
            # capacity.
            self._lookups = 0
            self._counts = {oid: n >> 1 for oid, n in counts.items()
                            if n > 1}

    def put(self, object_id, epoch: int, result: ReadResult) -> None:
        """Store one decoded object, evicting LRU objects until its
        units fit — unless one of those objects was looked up more often
        than this one, in which case nothing changes but ``rejected``.
        A result that fits without eviction, or replaces its own key, is
        always stored."""
        units = _units(result)
        if units > self.capacity:
            return
        key = (object_id, epoch)
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._size -= _units(previous)
        elif not self._admits(object_id, self._size + units - self.capacity):
            self.rejected += units
            return
        self._entries[key] = result
        self._size += units
        while self._size > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            self._size -= _units(evicted)
            self.evictions += _units(evicted)

    def _admits(self, object_id, excess: int) -> bool:
        """Whether ``object_id`` may evict the LRU objects holding its
        ``excess`` units: none of them was looked up more often."""
        count = self._counts.get(object_id, 0)
        for (victim, _), entry in self._entries.items():
            if excess <= 0:
                break
            if self._counts.get(victim, 0) > count:
                return False
            excess -= _units(entry)
        return True

    def stats(self) -> dict:
        """Always-on cache statistics as a plain dict.

        Lifetime ``hits``/``misses`` (one per :meth:`get`, i.e. per
        object looked up), ``evictions`` and ``rejected`` (units, the
        latter refused admission) totals, the current ``size``/
        ``capacity`` in units, and the derived ``hit_rate`` (0.0 before
        any lookup). No tracer required — these counters are maintained
        on every :meth:`get`/:meth:`put` regardless of observability
        state, and :meth:`~repro.service.plane.StoreService.health`
        folds them into its snapshot.
        """
        lookups = self.hits + self.misses
        return {
            "size": self._size,
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "rejected": self.rejected,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def invalidate(self, object_id) -> int:
        """Eagerly drop every entry of ``object_id`` (any epoch).

        The epoch bump already makes stale entries unreachable; eager
        removal frees their capacity immediately. The object's lookup
        count stays. Returns the number of units dropped.
        """
        stale = [key for key in self._entries if key[0] == object_id]
        dropped = sum(_units(self._entries.pop(key)) for key in stale)
        self._size -= dropped
        return dropped

    def clear(self) -> None:
        self._entries.clear()
        self._size = 0
