"""Decoded-object LRU cache: ordering, eviction, epochs, invalidation.

Entries are whole decoded objects keyed by ``(object_id, epoch)``;
capacity, size and evictions count units.
"""

import numpy as np
import pytest

from repro.core.store import ReadResult, StoreReport
from repro.service import DecodedUnitCache


def decoded(tag, units=1):
    """A stand-in decoded object of ``units`` units."""
    return ReadResult(bits=np.zeros(8, dtype=np.uint8),
                      report=StoreReport([None] * units), object_id=tag)


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
        cache.put("c", 0, decoded("c", units=2))  # evicts "a": 2 units
        stats = cache.stats()
        assert stats == {
            "size": 4, "capacity": 4, "hits": 1, "misses": 1,
            "evictions": 2, "hit_rate": 0.5,
        }

    def test_hit_rate_defined_before_any_lookup(self):
        assert DecodedUnitCache(capacity=4).stats()["hit_rate"] == 0.0
