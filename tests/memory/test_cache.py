"""Tests for the set-associative MESI cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.memory import MesiState, SetAssocCache


def make_cache(size=1024, ways=2, line=64):
    return SetAssocCache(CacheConfig(size, ways, 1, line_bytes=line))


class TestBasics:
    def test_empty_lookup_misses(self):
        cache = make_cache()
        assert cache.lookup(0x100) is None
        assert cache.misses == 1

    def test_insert_then_hit(self):
        cache = make_cache()
        cache.insert(0x100, MesiState.SHARED)
        line = cache.lookup(0x100)
        assert line is not None
        assert line.state is MesiState.SHARED
        assert cache.hits == 1

    def test_lookup_any_byte_in_line(self):
        cache = make_cache()
        cache.insert(0x100, MesiState.EXCLUSIVE)
        assert cache.lookup(0x100 + 63) is not None
        assert cache.lookup(0x100 + 64) is None

    def test_sets_are_built_on_first_insert(self):
        cache = make_cache()
        assert all(cache_set is None for cache_set in cache._sets)
        # An untouched set reads as empty.
        assert cache.lookup(0x100) is None
        with pytest.raises(KeyError):
            cache.set_state(0x100, MesiState.MODIFIED)
        assert cache.invalidate(0x100) is False
        assert not cache.contains(0x100)
        assert cache.occupancy() == 0 and cache.dirty_lines() == []
        assert all(cache_set is None for cache_set in cache._sets)
        cache.insert(0x100, MesiState.MODIFIED)
        assert sum(s is not None for s in cache._sets) == 1

    def test_insert_upgrades_existing_state(self):
        cache = make_cache()
        cache.insert(0x100, MesiState.SHARED)
        assert cache.insert(0x100, MesiState.MODIFIED) is None
        assert cache.lookup(0x100).state is MesiState.MODIFIED

    def test_set_state(self):
        cache = make_cache()
        cache.insert(0x100, MesiState.EXCLUSIVE)
        cache.set_state(0x100, MesiState.MODIFIED)
        assert cache.lookup(0x100).dirty

    def test_set_state_invalid_removes(self):
        cache = make_cache()
        cache.insert(0x100, MesiState.SHARED)
        cache.set_state(0x100, MesiState.INVALID)
        assert not cache.contains(0x100)

    def test_set_state_missing_line_raises(self):
        with pytest.raises(KeyError):
            make_cache().set_state(0x100, MesiState.SHARED)

    def test_invalidate_reports_dirtiness(self):
        cache = make_cache()
        cache.insert(0x100, MesiState.MODIFIED)
        assert cache.invalidate(0x100) is True
        cache.insert(0x140, MesiState.SHARED)
        assert cache.invalidate(0x140) is False
        assert cache.invalidate(0x999000) is False


class TestReplacement:
    def test_eviction_on_conflict(self):
        cache = make_cache(size=256, ways=2, line=64)  # 2 sets
        # Three lines mapping to set 0: line addrs 0, 128, 256.
        cache.insert(0, MesiState.SHARED)
        cache.insert(128, MesiState.SHARED)
        eviction = cache.insert(256, MesiState.SHARED)
        assert eviction is not None
        assert eviction.addr == 0  # LRU victim

    def test_lru_touch_on_lookup(self):
        cache = make_cache(size=256, ways=2, line=64)
        cache.insert(0, MesiState.SHARED)
        cache.insert(128, MesiState.SHARED)
        cache.lookup(0)  # 0 becomes MRU
        eviction = cache.insert(256, MesiState.SHARED)
        assert eviction.addr == 128

    def test_dirty_eviction_flagged(self):
        cache = make_cache(size=256, ways=2, line=64)
        cache.insert(0, MesiState.MODIFIED)
        cache.insert(128, MesiState.SHARED)
        eviction = cache.insert(256, MesiState.SHARED)
        assert eviction.dirty

    def test_occupancy_and_dirty_lines(self):
        cache = make_cache()
        cache.insert(0x000, MesiState.MODIFIED)
        cache.insert(0x040, MesiState.SHARED)
        cache.insert(0x080, MesiState.MODIFIED)
        assert cache.occupancy() == 3
        assert sorted(cache.dirty_lines()) == [0x000, 0x080]

    def test_state_counts(self):
        cache = make_cache()
        cache.insert(0x000, MesiState.MODIFIED)
        cache.insert(0x040, MesiState.SHARED)
        counts = cache.state_counts()
        assert counts[MesiState.MODIFIED] == 1
        assert counts[MesiState.SHARED] == 1


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1,
                    max_size=200))
    def test_occupancy_never_exceeds_capacity(self, addrs):
        cache = make_cache(size=512, ways=2, line=64)  # 8 lines capacity
        for addr in addrs:
            cache.insert(addr, MesiState.SHARED)
        assert cache.occupancy() <= 8
        # Per-set occupancy never exceeds associativity (sets no insert
        # reached are never built).
        for cache_set in cache._sets:
            if cache_set is not None:
                assert len(cache_set) <= 2

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1,
                    max_size=100))
    def test_most_recent_insert_always_present(self, addrs):
        cache = make_cache(size=512, ways=2, line=64)
        for addr in addrs:
            cache.insert(addr, MesiState.SHARED)
            assert cache.contains(addr)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["insert", "invalidate", "lookup"]),
                  st.integers(min_value=0, max_value=1023)),
        max_size=150,
    ))
    def test_dirty_lines_always_modified(self, ops):
        cache = make_cache(size=512, ways=2, line=64)
        for op, addr in ops:
            if op == "insert":
                state = MesiState.MODIFIED if addr % 2 else MesiState.SHARED
                cache.insert(addr, state)
            elif op == "invalidate":
                cache.invalidate(addr)
            else:
                cache.lookup(addr)
        for line_addr in cache.dirty_lines():
            assert cache.lookup(line_addr, touch=False).state is MesiState.MODIFIED
