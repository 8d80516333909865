"""Decoded-object cache: LRU order, eviction, frequency admission,
epochs, invalidation.

Entries are whole decoded objects keyed by ``(object_id, epoch)``;
capacity, size, evictions and refusals count units. Lookup counts are
keyed by ``object_id``.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.store import ReadResult, StoreReport
from repro.service import DecodedUnitCache
from repro.service.cache import MAX_COUNT, SAMPLE_PER_UNIT


def decoded(tag, units=1):
    """A stand-in decoded object of ``units`` units."""
    return ReadResult(bits=np.zeros(8, dtype=np.uint8),
                      report=StoreReport([None] * units), object_id=tag)


def lookup(cache, tag, times=1):
    """Look ``tag`` (epoch 0) up ``times`` times."""
    for _ in range(times):
        cache.get(tag, 0)


class TestLookup:
    def test_miss_then_hit(self):
        cache = DecodedUnitCache(capacity=4)
        a = decoded("a")
        assert cache.get("a", 0) is None
        cache.put("a", 0, a)
        assert cache.get("a", 0) is a
        assert cache.hits == 1
        assert cache.misses == 1

    def test_keys_are_object_and_epoch(self):
        cache = DecodedUnitCache(capacity=8)
        a = decoded("a", units=2)
        cache.put("a", 0, a)
        assert cache.get("b", 0) is None      # other object
        assert cache.get("a", 1) is None      # other epoch
        assert cache.get("a", 0) is a

    def test_len_counts_units(self):
        cache = DecodedUnitCache(capacity=8)
        cache.put("a", 0, decoded("a", units=3))
        cache.put("b", 0, decoded("b", units=2))
        assert len(cache) == 5


class TestEviction:
    def test_lru_order(self):
        cache = DecodedUnitCache(capacity=2)
        a, b, c = decoded("a"), decoded("b"), decoded("c")
        cache.put("a", 0, a)
        cache.put("b", 0, b)
        cache.get("a", 0)                     # refresh a
        cache.put("c", 0, c)                  # evicts b, not a
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) is a
        assert cache.get("c", 0) is c
        assert cache.evictions == 1

    def test_objects_evict_whole_and_count_units(self):
        """A 2-unit object entering a full 4-unit cache evicts the LRU
        object whole: both of its units count as evictions."""
        cache = DecodedUnitCache(capacity=4)
        a, b, c = (decoded(tag, units=2) for tag in "abc")
        cache.put("a", 0, a)
        cache.put("b", 0, b)
        cache.put("c", 0, c)
        assert cache.get("a", 0) is None
        assert cache.get("b", 0) is b and cache.get("c", 0) is c
        assert len(cache) == 4
        assert cache.evictions == 2

    def test_large_object_evicts_as_many_as_it_needs(self):
        cache = DecodedUnitCache(capacity=4)
        for tag in "abcd":
            cache.put(tag, 0, decoded(tag))
        big = decoded("big", units=3)
        cache.put("big", 0, big)              # evicts a, b and c
        assert [tag for tag in "abcd" if cache.get(tag, 0)] == ["d"]
        assert cache.get("big", 0) is big
        assert len(cache) == 4
        assert cache.evictions == 3

    def test_put_refreshes_recency(self):
        cache = DecodedUnitCache(capacity=2)
        cache.put("a", 0, decoded("a"))
        cache.put("b", 0, decoded("b"))
        again = decoded("a")
        cache.put("a", 0, again)              # re-put refreshes a
        cache.put("c", 0, decoded("c"))       # evicts b
        assert cache.get("a", 0) is again
        assert cache.get("b", 0) is None
        assert len(cache) == 2

    def test_reput_with_other_size_keeps_the_unit_count(self):
        cache = DecodedUnitCache(capacity=4)
        cache.put("a", 0, decoded("a", units=1))
        cache.put("a", 0, decoded("a", units=3))
        assert len(cache) == 3
        assert cache.evictions == 0

    def test_capacity_zero_disables_caching(self):
        cache = DecodedUnitCache(capacity=0)
        cache.put("a", 0, decoded("a"))
        assert len(cache) == 0
        assert cache.get("a", 0) is None
        assert cache.evictions == 0

    def test_object_larger_than_capacity_is_not_stored(self):
        cache = DecodedUnitCache(capacity=2)
        small = decoded("small")
        cache.put("small", 0, small)
        cache.put("big", 0, decoded("big", units=3))
        assert cache.get("big", 0) is None
        assert cache.get("small", 0) is small
        assert cache.evictions == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DecodedUnitCache(capacity=-1)


class TestInvalidation:
    def test_invalidate_drops_the_object_and_returns_its_units(self):
        cache = DecodedUnitCache(capacity=8)
        cache.put("a", 0, decoded("a", units=3))
        b = decoded("b")
        cache.put("b", 0, b)
        assert cache.invalidate("a") == 3
        assert len(cache) == 1
        assert cache.get("b", 0) is b
        assert cache.invalidate("a") == 0

    def test_invalidate_spans_epochs(self):
        cache = DecodedUnitCache(capacity=8)
        cache.put("a", 0, decoded("old", units=2))
        cache.put("a", 1, decoded("new", units=2))
        assert cache.invalidate("a") == 4
        assert len(cache) == 0

    def test_clear(self):
        cache = DecodedUnitCache(capacity=8)
        cache.put("a", 0, decoded("a", units=2))
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a", 0) is None


class TestStats:
    def test_stats_track_every_lookup_and_eviction(self):
        cache = DecodedUnitCache(capacity=4)
        cache.get("a", 0)                     # miss
        cache.put("a", 0, decoded("a", units=2))
        cache.get("a", 0)                     # hit
        cache.put("b", 0, decoded("b", units=2))
        cache.put("c", 0, decoded("c", units=2))  # refused: a looked up 2x
        assert cache.stats() == {
            "size": 4, "capacity": 4, "hits": 1, "misses": 1,
            "evictions": 0, "rejected": 2, "hit_rate": 0.5,
        }
        cache.get("c", 0)                     # miss
        cache.get("c", 0)                     # miss: c ties a
        cache.put("c", 0, decoded("c", units=2))  # evicts "a": 2 units
        assert cache.stats() == {
            "size": 4, "capacity": 4, "hits": 1, "misses": 3,
            "evictions": 2, "rejected": 2, "hit_rate": 0.25,
        }

    def test_hit_rate_defined_before_any_lookup(self):
        assert DecodedUnitCache(capacity=4).stats()["hit_rate"] == 0.0


class TestAdmission:
    def test_hot_object_survives_a_scan_of_one_off_misses(self):
        cache = DecodedUnitCache(capacity=4)
        hot = decoded("hot", units=2)
        lookup(cache, "hot")
        cache.put("hot", 0, hot)
        cache.put("warm", 0, decoded("warm", units=2))
        lookup(cache, "hot", 3)
        for k in range(50):                   # a burst of one-off misses
            tag = f"once{k}"
            assert cache.get(tag, 0) is None
            cache.put(tag, 0, decoded(tag, units=2))
        assert cache.get("hot", 0) is hot
        # The first one-off displaced the never-looked-up "warm"; that
        # left "hot" at the LRU end, and it refused every later one.
        assert cache.evictions == 2
        assert cache.rejected == 2 * 49

    def test_newly_hot_object_is_admitted_once_its_count_reaches_the_victim(
            self):
        cache = DecodedUnitCache(capacity=2)
        for tag in "ab":
            cache.put(tag, 0, decoded(tag))
            lookup(cache, tag, 3)
        new = decoded("new")
        for _ in range(2):
            lookup(cache, "new")
            cache.put("new", 0, new)          # refused: 1, then 2 < 3
        assert cache.rejected == 2
        assert cache.evictions == 0
        lookup(cache, "new")
        cache.put("new", 0, new)              # 3 ties the LRU victim a
        assert cache.evictions == 1
        assert cache.get("a", 0) is None
        assert cache.get("new", 0) is new
        assert cache.get("b", 0) is not None

    def test_every_would_be_victim_is_weighed(self):
        """A 2-unit object that must evict two LRU objects is refused
        when the second one is hotter, however cold the first."""
        cache = DecodedUnitCache(capacity=3)
        lookup(cache, "b", 2)                 # misses: b stays second
        for tag in "abc":
            cache.put(tag, 0, decoded(tag))
        lookup(cache, "big")
        cache.put("big", 0, decoded("big", units=2))  # victims a, b
        assert cache.rejected == 2
        assert cache.evictions == 0
        assert all(cache.get(tag, 0) is not None for tag in "abc")

    def test_counts_survive_an_epoch_bump(self):
        cache = DecodedUnitCache(capacity=1)
        cache.put("a", 0, decoded("a"))
        lookup(cache, "a", 3)
        cache.invalidate("a")
        cache.put("a", 1, decoded("a"))       # re-encoded: fits, stored
        lookup(cache, "b", 2)
        cache.put("b", 0, decoded("b"))       # refused: a is still hotter
        assert cache.get("a", 1) is not None
        assert cache.rejected == 1


class TestAging:
    def test_counts_saturate_at_the_cap(self):
        """A count past the cap ties a count at the cap: a newcomer
        looked up 15 times displaces an object looked up 20 times."""
        cache = DecodedUnitCache(capacity=8)  # halving after 80 lookups
        cache.put("a", 0, decoded("a", units=8))
        lookup(cache, "a", MAX_COUNT + 5)
        lookup(cache, "b", MAX_COUNT)
        assert cache._counts == {"a": MAX_COUNT, "b": MAX_COUNT}
        b = decoded("b", units=8)
        cache.put("b", 0, b)
        assert cache.get("b", 0) is b
        assert cache.rejected == 0

    def test_counts_halve_every_ten_capacities_of_lookups(self):
        cache = DecodedUnitCache(capacity=2)
        assert SAMPLE_PER_UNIT * cache.capacity == 20
        lookup(cache, "a", 7)
        lookup(cache, "b", 3)
        for tag in "cdefghijk":
            lookup(cache, tag)
        assert cache._counts == {"a": 7, "b": 3, **dict.fromkeys(
            "cdefghijk", 1)}
        lookup(cache, "a")                    # the 20th lookup: halve
        assert cache._counts == {"a": 4, "b": 1}
        lookup(cache, "b", 20)                # capped at 15, then halved
        assert cache._counts == {"a": 2, "b": 7}

    @pytest.mark.parametrize("capacity", [1, 3, 8])
    def test_count_table_stays_bounded(self, capacity):
        bound = 2 * SAMPLE_PER_UNIT * capacity
        cache = DecodedUnitCache(capacity=capacity)
        rng = np.random.default_rng(capacity)
        largest = 0
        for k in range(40 * bound):
            # Distinct one-offs mixed with repeats of a few hundred ids.
            tag = k if k % 3 else int(rng.integers(300))
            cache.get(tag, 0)
            largest = max(largest, len(cache._counts))
        assert largest <= bound
        assert largest > SAMPLE_PER_UNIT * capacity // 2


class TestAdmissionEdges:
    def test_capacity_zero_keeps_no_counts(self):
        cache = DecodedUnitCache(capacity=0)
        lookup(cache, "a", 5)
        cache.put("a", 0, decoded("a"))
        assert cache._counts == {}
        assert cache.stats()["misses"] == 5
        assert cache.rejected == 0

    def test_resident_reput_is_never_refused(self):
        cache = DecodedUnitCache(capacity=2)
        cache.put("a", 0, decoded("a"))
        cache.put("b", 0, decoded("b"))
        lookup(cache, "b", 5)
        bigger = decoded("a", units=2)
        cache.put("a", 0, bigger)             # must evict the hotter b
        assert cache.get("a", 0) is bigger
        assert cache.get("b", 0) is None
        assert cache.rejected == 0
        assert cache.evictions == 1

    def test_refused_put_changes_nothing_but_rejected(self):
        cache = DecodedUnitCache(capacity=4)
        for tag in "abcd":
            cache.put(tag, 0, decoded(tag))
            lookup(cache, tag, 2)
        lookup(cache, "e")
        before = (list(cache._entries.items()), dict(cache._counts),
                  cache._lookups, cache.stats())
        cache.put("e", 0, decoded("e"))
        after = (list(cache._entries.items()), dict(cache._counts),
                 cache._lookups, cache.stats())
        assert after[3].pop("rejected") == before[3].pop("rejected") + 1
        assert after == before


# Serve's traffic shape (perfbench's ``serve`` workload): 512 four-unit
# objects, Zipf(1.1) popularity over a seeded permutation, 16 requests
# per tick, one lookup per distinct object per tick.
N_OBJECTS = 512
OBJECT_UNITS = 4
CLIENTS = 16
ZIPF = 1.1


def serve_traffic(seed, n_ticks, reshuffle_every=None):
    """The distinct objects each tick looks up; the popularity order is
    drawn afresh every ``reshuffle_every`` ticks when given."""
    rng = np.random.default_rng(seed)
    weights = np.arange(1, N_OBJECTS + 1, dtype=np.float64) ** -ZIPF
    cdf = np.cumsum(weights / weights.sum())
    popularity = rng.permutation(N_OBJECTS)
    for tick in range(n_ticks):
        if reshuffle_every and tick and tick % reshuffle_every == 0:
            popularity = rng.permutation(N_OBJECTS)
        draws = np.minimum(np.searchsorted(cdf, rng.random(CLIENTS)),
                           N_OBJECTS - 1)
        yield list(dict.fromkeys(popularity[draws].tolist()))


def replay(cache, ticks):
    """Drive ``cache`` as ``StoreService.tick`` does (look every object
    of the tick up, then put the misses) with stand-in results; returns
    the hit rate."""
    results = {}
    for objects in ticks:
        missing = [oid for oid in objects if cache.get(oid, 0) is None]
        for oid in missing:
            if oid not in results:
                results[oid] = decoded(oid, units=OBJECT_UNITS)
            cache.put(oid, 0, results[oid])
    return cache.hits / (cache.hits + cache.misses)


class LruModel:
    """A plain LRU sized in units: the cache's policy before admission."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def get(self, object_id, epoch):
        result = self.entries.get((object_id, epoch))
        if result is None:
            self.misses += 1
        else:
            self.entries.move_to_end((object_id, epoch))
            self.hits += 1
        return result

    def put(self, object_id, epoch, result):
        units = result.report.n_units
        if units > self.capacity:
            return
        self.entries.pop((object_id, epoch), None)
        self.entries[object_id, epoch] = result
        while sum(r.report.n_units for r in self.entries.values()) \
                > self.capacity:
            _, evicted = self.entries.popitem(last=False)
            self.evictions += evicted.report.n_units

    def invalidate(self, object_id):
        for key in [key for key in self.entries if key[0] == object_id]:
            del self.entries[key]

    def clear(self):
        self.entries.clear()


class TestServeTraffic:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_admission_keeps_the_popular_head(self, seed):
        """A plain LRU hits ~0.57 of these lookups; keeping the 64 most
        popular objects would hit ~0.69."""
        cache = DecodedUnitCache(capacity=256)
        assert replay(cache, serve_traffic(seed, 2000)) >= 0.65

    def test_capped_counts_follow_a_reshuffled_popularity(self):
        """Counts capped at 15 let the filter forget a popularity order
        reshuffled every 500 ticks (~0.62 hit rate); uncapped, stale
        counts lock fresh objects out and it falls to ~0.55, below a
        plain LRU."""
        traffic = dict(seed=3, n_ticks=3000, reshuffle_every=500)
        cache = DecodedUnitCache(capacity=256)
        lru = LruModel(capacity=256)
        admitted = replay(cache, serve_traffic(**traffic))
        assert admitted >= 0.60
        assert admitted > replay(lru, serve_traffic(**traffic)) + 0.03


OPS = st.lists(
    st.tuples(
        st.sampled_from(["get", "put", "invalidate", "clear"]),
        st.integers(0, 5),                    # object id
        st.integers(0, 1),                    # epoch
        st.integers(1, 3),                    # units
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(0, 8), ops=OPS)
def test_cache_invariants_under_random_operations(capacity, ops):
    cache = DecodedUnitCache(capacity=capacity)
    lru = LruModel(capacity)
    gets = 0
    for op, oid, epoch, units in ops:
        if op == "get":
            gets += 1
            cache.get(oid, epoch)
        elif op == "put":
            result = decoded(oid, units)
            key = (oid, epoch)
            fits = len(cache) + units <= capacity
            resident = key in cache._entries
            cache.put(oid, epoch, result)
            lru.put(oid, epoch, result)
            if units <= capacity and (fits or resident):
                assert cache._entries[key] is result
        elif op == "invalidate":
            cache.invalidate(oid)
            lru.invalidate(oid)
        else:
            cache.clear()
            lru.clear()
        assert len(cache) <= capacity
        assert len(cache) == sum(result.report.n_units
                                 for result in cache._entries.values())
        assert cache.hits + cache.misses == gets
        if not gets:
            # No lookups, no counts: every put ties, a plain LRU.
            assert list(cache._entries.items()) == list(lru.entries.items())
            assert cache.evictions == lru.evictions
            assert cache.rejected == 0
