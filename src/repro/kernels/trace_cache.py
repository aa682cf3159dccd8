"""Bounded in-process memoization of generated traces.

Design-space sweeps (`repro.runtime` campaigns, `repro.sim` schedule
comparisons, cross-model validation) regenerate the identical
200k-instruction trace for every RunSpec touching the same benchmark.
:func:`cached_generate_trace` memoizes
:func:`repro.workloads.generator.generate_trace` per
``(profile, instructions, seed)`` -- :class:`BenchmarkProfile` is a
frozen (hashable) dataclass, and generation is deterministic in the
key, so a cache hit is exact.

The cache is LRU-bounded by *total cached instructions*, not entry
count (:data:`DEFAULT_CACHE_INSTRUCTIONS`), so a sweep over many
benchmarks cannot grow memory without bound.  Cached traces are shared
between callers, so traces must be treated as read-only -- which the
core models and :meth:`repro.isa.trace.Trace.slice` already guarantee.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.isa.trace import Trace
from repro.workloads.characteristics import BenchmarkProfile
from repro.workloads.generator import generate_trace

#: Default total-instruction budget across all cached traces (~4M
#: instructions: tens of MB, a full fig6-style benchmark suite at the
#: standard 200k-instruction trace length).
DEFAULT_CACHE_INSTRUCTIONS = 4_000_000

_cache: OrderedDict[tuple, Trace] = OrderedDict()
_cached_instructions = 0
_hits = 0
_misses = 0


def cached_generate_trace(
    profile: BenchmarkProfile,
    instructions: int | None = None,
    seed: int = 0,
) -> Trace:
    """Drop-in memoized :func:`generate_trace`.

    Returns the cached :class:`Trace` for a repeated
    ``(profile, instructions, seed)`` key; the result must be treated
    as read-only.
    """
    global _cached_instructions, _hits, _misses
    key = (profile, instructions, seed)
    trace = _cache.get(key)
    if trace is not None:
        _cache.move_to_end(key)
        _hits += 1
        return trace
    _misses += 1
    trace = generate_trace(profile, instructions, seed=seed)
    _cache[key] = trace
    _cached_instructions += len(trace)
    while (
        _cached_instructions > DEFAULT_CACHE_INSTRUCTIONS and len(_cache) > 1
    ):
        _, evicted = _cache.popitem(last=False)
        _cached_instructions -= len(evicted)
    return trace


def cache_stats() -> dict[str, int]:
    """Current cache occupancy and hit/miss counters."""
    return {
        "entries": len(_cache),
        "instructions": _cached_instructions,
        "hits": _hits,
        "misses": _misses,
    }


def clear_cache() -> None:
    """Drop all cached traces and reset the counters."""
    global _cached_instructions, _hits, _misses
    _cache.clear()
    _cached_instructions = 0
    _hits = 0
    _misses = 0
