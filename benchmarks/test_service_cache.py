"""Serving-cache hit rate vs capacity under Zipf traffic.

The serving plane decodes an object only when the ``DecodedUnitCache``
misses it, so its hit rate sets how many decodes a tick runs. This
benchmark replays the traffic shape of the repository benchmark's
``serve`` workload straight through the cache, with stand-in results in
place of decodes: 512 objects of 4 units, Zipf(1.1) popularity over a
seeded random order, 16 requests per tick, one lookup per distinct
object per tick (as ``StoreService.tick`` looks up), misses put after
the tick's lookups, 3,000 ticks from a cold cache at each capacity.

Reported per capacity (units): the cache's hit rate, its evictions and
refused admissions (units), and the hit rate of a static reference
that holds the ``capacity / 4`` most popular objects from the start —
what a cache that knew the popularity order in advance would hit,
cold misses aside. At serve's 256 units the reference hits ~0.69 of
these lookups, and a plain LRU (the cache before frequency admission)
hit ~0.57 in the same replay.

Every series is deterministic, so ``check_trend.py`` drift-gates all of
them; each capacity's replay is one ``cache.replay`` span carrying its
counts, which the run manifest records.
"""

import numpy as np

from benchmarks.conftest import print_series
from repro.core.store import ReadResult, StoreReport
from repro.observability import get_tracer
from repro.service import DecodedUnitCache

N_OBJECTS = 512
OBJECT_UNITS = 4
CLIENTS = 16
ZIPF = 1.1
N_TICKS = 3000
CAPACITIES = (64, 128, 256, 512, 1024, 2048)
SEED = 2022


def serve_traffic(seed=SEED):
    """``(popularity order, the distinct objects of every tick)``."""
    rng = np.random.default_rng(seed)
    weights = np.arange(1, N_OBJECTS + 1, dtype=np.float64) ** -ZIPF
    cdf = np.cumsum(weights / weights.sum())
    popularity = rng.permutation(N_OBJECTS)
    ticks = []
    for _ in range(N_TICKS):
        draws = np.minimum(np.searchsorted(cdf, rng.random(CLIENTS)),
                           N_OBJECTS - 1)
        ticks.append(list(dict.fromkeys(popularity[draws].tolist())))
    return popularity, ticks


def replay(capacity, ticks, results):
    cache = DecodedUnitCache(capacity)
    with get_tracer().span("cache.replay", capacity=capacity) as span:
        for objects in ticks:
            missing = [oid for oid in objects if cache.get(oid, 0) is None]
            for oid in missing:
                cache.put(oid, 0, results[oid])
        stats = cache.stats()
        span.set(hits=stats["hits"], misses=stats["misses"],
                 evictions=stats["evictions"], rejected=stats["rejected"])
    return stats


def static_top_k_hit_rate(capacity, popularity, ticks):
    held = set(popularity[:capacity // OBJECT_UNITS].tolist())
    lookups = sum(len(objects) for objects in ticks)
    hits = sum(oid in held for objects in ticks for oid in objects)
    return hits / lookups


def run_experiment():
    popularity, ticks = serve_traffic()
    results = {
        oid: ReadResult(bits=np.zeros(8, dtype=np.uint8),
                        report=StoreReport([None] * OBJECT_UNITS),
                        object_id=oid)
        for oid in range(N_OBJECTS)
    }
    rows = []
    for capacity in CAPACITIES:
        stats = replay(capacity, ticks, results)
        rows.append({
            "hit_rate": stats["hit_rate"],
            "top_k_hit_rate": static_top_k_hit_rate(capacity, popularity,
                                                    ticks),
            "evictions": stats["evictions"],
            "rejected": stats["rejected"],
        })
    return rows


def test_service_cache(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print(
        f"\nServing cache over serve's traffic: {N_OBJECTS} objects x "
        f"{OBJECT_UNITS} units, Zipf({ZIPF}), {CLIENTS} requests/tick, "
        f"{N_TICKS} ticks from cold"
    )
    print_series(
        "Service cache hit rate vs capacity units",
        list(CAPACITIES),
        {key: [row[key] for row in rows]
         for key in ("hit_rate", "top_k_hit_rate", "evictions",
                     "rejected")},
    )

    hit_rates = [row["hit_rate"] for row in rows]
    assert hit_rates == sorted(hit_rates)
    # Within reach of the static top-k reference wherever the cache is
    # smaller than the corpus (serve runs at 256 units).
    for capacity, row in zip(CAPACITIES, rows):
        if capacity < N_OBJECTS * OBJECT_UNITS:
            assert row["hit_rate"] >= row["top_k_hit_rate"] - 0.03
    # A cache that holds the whole corpus misses only cold objects.
    assert rows[-1]["evictions"] == rows[-1]["rejected"] == 0
