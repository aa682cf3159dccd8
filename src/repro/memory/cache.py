"""Set-associative cache with true-LRU replacement.

Used by the trace-driven core models to service instruction and data
accesses against real address streams.  Each set is a ``dict`` mapping
line tag to last-use clock: membership tests and LRU refreshes are
O(1), and victim selection is O(associativity) over a handful of ways.
This representation is an order of magnitude faster than per-access
numpy round-trips and behaves identically (hit/miss pattern, eviction
choice, statistics) to the previous numpy-backed implementation.

:meth:`SetAssociativeCache.access` is the scalar path; the fast walk
the `repro.kernels` window kernels and the trace-driven warm-up run
is :meth:`repro.memory.hierarchy.CacheHierarchy.data_walk`, which
works on these sets, clocks and statistics directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.machines import CacheLevelConfig


@dataclass
class CacheStats:
    """Access statistics of one cache instance."""

    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """A single cache level with LRU replacement.

    Addresses are byte addresses; the cache works on line granularity.
    Writes are modelled allocate-on-write (write-back caches in the
    simulated hierarchy), so reads and writes behave identically for
    hit/miss purposes.
    """

    def __init__(self, config: CacheLevelConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self.stats = CacheStats()
        self._num_sets = config.num_sets
        self._ways = config.associativity
        # tag -> last-use clock; insertion never exceeds `_ways` keys.
        self._sets: list[dict[int, int]] = [
            {} for _ in range(self._num_sets)
        ]
        self._clock = 0
        self._line_shift = int(config.line_bytes).bit_length() - 1
        if (1 << self._line_shift) != config.line_bytes:
            raise ValueError("line size must be a power of two")

    def _index_tag(self, address: int) -> tuple[int, int]:
        line = address >> self._line_shift
        return line % self._num_sets, line // self._num_sets

    def access(self, address: int) -> bool:
        """Access a byte address; returns ``True`` on a hit.

        On a miss the line is filled, evicting the LRU way.
        """
        self._clock += 1
        self.stats.accesses += 1
        line = int(address) >> self._line_shift
        lru = self._sets[line % self._num_sets]
        tag = line // self._num_sets
        if tag in lru:
            lru[tag] = self._clock
            return True
        self.stats.misses += 1
        if len(lru) >= self._ways:
            del lru[min(lru, key=lru.__getitem__)]
        lru[tag] = self._clock
        return False

    def contains(self, address: int) -> bool:
        """Whether the line holding an address is resident (no update)."""
        index, tag = self._index_tag(int(address))
        return tag in self._sets[index]

    @property
    def resident_lines(self) -> int:
        return sum(len(lru) for lru in self._sets)
