"""The random-access serving plane (the paper's Section 2.1 workload).

Many users each pull one object out of a shared pool; the plane turns
that traffic into amortized pipeline work, as a plain client of the
store's public read path:

* :class:`~repro.service.plane.StoreService` — a request queue whose
  :meth:`~repro.service.plane.StoreService.tick` serves every drained
  ticket through one :meth:`~repro.core.store.DnaStore.read_many` call:
  one spanning consensus pass and one batched RS errata pass.
  :meth:`~repro.service.plane.StoreService.put` checks each object with
  :meth:`~repro.core.store.DnaStore.check`, so a malformed object fails
  there and never reaches a tick;
* :class:`~repro.service.cache.DecodedUnitCache` — the cache of decoded
  objects (whole ``ReadResult`` entries, sized in units) in front of
  the pipeline, invalidated by epoch on re-encode, so repeat reads never
  touch consensus or RS at all. It evicts least-recently-used objects
  and admits a new one only over objects looked up no more often, so
  one-off reads cannot push the popular head out.

Quick start::

    service = StoreService(store, cache_capacity=256, batch_window=16)
    service.put("fileA", reads_a, bits_a.size)
    service.put("fileB", pool_b, bits_b.size, pool=True)
    service.submit("fileA"); service.submit("fileB")
    for result in service.tick():       # ONE coalesced decode
        assert result.clean

``ReadRequest``/``ReadResult`` (re-exported here) are the request-shaped
read surface on :class:`~repro.core.store.DnaStore` itself.
"""

from repro.core.store import ReadRequest, ReadResult
from repro.service.cache import DecodedUnitCache
from repro.service.plane import StoreService

__all__ = [
    "DecodedUnitCache",
    "ReadRequest",
    "ReadResult",
    "StoreService",
]
