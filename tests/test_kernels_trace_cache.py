"""Tests for the bounded trace cache."""

import numpy as np
import pytest

from repro.kernels import trace_cache
from repro.kernels.trace_cache import cache_stats, cached_generate_trace, clear_cache
from repro.workloads import benchmark
from repro.workloads.generator import generate_trace


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def test_hit_returns_same_object_and_matches_generate():
    profile = benchmark("soplex")
    first = cached_generate_trace(profile, 3_000, seed=5)
    second = cached_generate_trace(profile, 3_000, seed=5)
    assert second is first
    direct = generate_trace(profile, 3_000, seed=5)
    assert np.array_equal(first.classes, direct.classes)
    assert np.array_equal(first.addresses, direct.addresses)
    stats = cache_stats()
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_distinct_keys_do_not_collide():
    profile = benchmark("soplex")
    a = cached_generate_trace(profile, 2_000, seed=1)
    b = cached_generate_trace(profile, 2_000, seed=2)
    c = cached_generate_trace(profile, 3_000, seed=1)
    d = cached_generate_trace(benchmark("mcf"), 2_000, seed=1)
    assert len({id(t) for t in (a, b, c, d)}) == 4
    assert cache_stats()["misses"] == 4


def test_instruction_budget_evicts_lru(monkeypatch):
    monkeypatch.setattr(trace_cache, "DEFAULT_CACHE_INSTRUCTIONS", 5000)
    profile = benchmark("soplex")
    first = cached_generate_trace(profile, 3_000, seed=1)
    cached_generate_trace(profile, 3_000, seed=2)  # evicts seed=1
    assert cache_stats()["instructions"] <= 5000
    again = cached_generate_trace(profile, 3_000, seed=1)
    assert again is not first  # was evicted, regenerated
    assert np.array_equal(again.classes, first.classes)
