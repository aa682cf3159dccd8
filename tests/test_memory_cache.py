"""Tests for the set-associative LRU cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.machines import CacheLevelConfig
from repro.memory.cache import SetAssociativeCache


def _tiny_cache(sets=2, ways=2, line=64):
    return SetAssociativeCache(
        CacheLevelConfig(sets * ways * line, ways, 1, line_bytes=line), "t"
    )


class TestBasics:
    def test_cold_miss_then_hit(self):
        c = _tiny_cache()
        assert not c.access(0)
        assert c.access(0)
        assert c.access(63)  # same line
        assert not c.access(64)  # next line, different set

    def test_lru_eviction(self):
        c = _tiny_cache(sets=1, ways=2)
        lines = [0, 64, 128]  # all map to the single set
        c.access(lines[0])
        c.access(lines[1])
        c.access(lines[0])  # line 0 is now MRU
        c.access(lines[2])  # evicts line 1 (LRU)
        assert c.contains(lines[0])
        assert not c.contains(lines[1])
        assert c.contains(lines[2])

    def test_stats(self):
        c = _tiny_cache()
        c.access(0)
        c.access(0)
        c.access(4096)
        assert c.stats.accesses == 3
        assert c.stats.misses == 2
        assert c.stats.hits == 1
        assert c.stats.miss_rate == pytest.approx(2 / 3)

    def test_contains_does_not_touch_lru(self):
        c = _tiny_cache(sets=1, ways=2)
        c.access(0)
        c.access(64)
        c.contains(0)  # must NOT refresh line 0
        c.access(128)  # evicts the true LRU: line 0
        assert not c.contains(0)

    def test_rejects_non_power_of_two_lines(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(CacheLevelConfig(960, 2, 1, line_bytes=60))


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=300))
    def test_resident_lines_bounded_by_capacity(self, addresses):
        c = _tiny_cache(sets=4, ways=2)
        for a in addresses:
            c.access(a)
        assert c.resident_lines <= 8

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=200))
    def test_immediate_rereference_always_hits(self, addresses):
        c = _tiny_cache(sets=4, ways=4)
        for a in addresses:
            c.access(a)
            assert c.access(a)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=100))
    def test_working_set_within_capacity_never_misses_twice(self, refs):
        # 8 lines working set, 8-line fully-assoc-per-set cache layout
        # with 1 set: everything fits, so each line misses at most once.
        c = _tiny_cache(sets=1, ways=8)
        misses = 0
        for r in refs:
            if not c.access(r * 64):
                misses += 1
        assert misses <= 8
