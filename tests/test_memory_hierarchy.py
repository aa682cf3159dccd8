"""Tests for the multi-level cache hierarchy."""

import pytest

from repro.config.machines import MemoryConfig
from repro.memory.cache import SetAssociativeCache
from repro.memory.hierarchy import CacheHierarchy


class TestDataPath:
    def test_cold_access_goes_to_dram(self, memory):
        h = CacheHierarchy(memory, 2.66)
        outcome = h.access_data(0x1000)
        assert outcome.level == "dram"
        assert outcome.latency_cycles == pytest.approx(
            4 + 8 + 30 + 45 * 2.66
        )
        assert h.dram_accesses == 1
        assert h.l3_accesses == 1

    def test_second_access_hits_l1(self, memory):
        h = CacheHierarchy(memory, 2.66)
        h.access_data(0x1000)
        outcome = h.access_data(0x1000)
        assert outcome.level == "l1"
        assert outcome.latency_cycles == 4

    def test_l2_hit_after_l1_eviction(self, memory):
        h = CacheHierarchy(memory, 2.66)
        h.access_data(0)
        # Fill L1D set 0: 32KB/8way/64B = 64 sets; lines that map to
        # set 0 are 64*64 bytes apart.
        stride = 64 * 64
        for i in range(1, 9):
            h.access_data(i * stride)
        outcome = h.access_data(0)
        assert outcome.level == "l2"

    def test_shared_l3(self, memory):
        shared = SetAssociativeCache(memory.l3, "l3")
        h1 = CacheHierarchy(memory, 2.66, shared_l3=shared)
        h2 = CacheHierarchy(memory, 2.66, shared_l3=shared)
        h1.access_data(0x2000)
        # The same line misses h2's private levels but hits shared L3.
        outcome = h2.access_data(0x2000)
        assert outcome.level == "l3"

    def test_dram_latency_scales_with_frequency(self, memory):
        fast = CacheHierarchy(memory, 2.66)
        slow = CacheHierarchy(memory, 1.33)
        assert fast.dram_latency_cycles == pytest.approx(
            2 * slow.dram_latency_cycles
        )
