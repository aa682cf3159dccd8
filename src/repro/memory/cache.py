"""Set-associative cache with true-LRU replacement.

Used by the trace-driven core models to service instruction and data
accesses against real address streams.  Each set is a ``dict`` mapping
line tag to last-use clock: membership tests and LRU refreshes are
O(1), and victim selection is O(associativity) over a handful of ways.
This representation is an order of magnitude faster than per-access
numpy round-trips and behaves identically (hit/miss pattern, eviction
choice, statistics) to the previous numpy-backed implementation.

:meth:`SetAssociativeCache.access_batch` services a whole address
vector in one pass over pre-extracted index/tag buffers -- the batched
entry point the `repro.kernels` window kernels are built on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def access_batch(self, addresses: np.ndarray) -> np.ndarray:
        """Access a vector of byte addresses in order; returns hit flags.

        Semantically identical to calling :meth:`access` once per
        address (same hit/miss pattern, LRU state and statistics), but
        the set-index/tag extraction is vectorized and the update loop
        runs over plain Python ints with no per-call overhead.
        """
        n = len(addresses)
        if n == 0:
            return np.zeros(0, dtype=bool)
        lines = np.asarray(addresses, dtype=np.int64) >> self._line_shift
        indices = (lines % self._num_sets).tolist()
        tags = (lines // self._num_sets).tolist()
        sets = self._sets
        ways = self._ways
        clock = self._clock
        hits = []
        append = hits.append
        missed = 0
        for index, tag in zip(indices, tags):
            clock += 1
            lru = sets[index]
            if tag in lru:
                lru[tag] = clock
                append(True)
                continue
            missed += 1
            if len(lru) >= ways:
                del lru[min(lru, key=lru.__getitem__)]
            lru[tag] = clock
            append(False)
        self._clock = clock
        self.stats.accesses += n
        self.stats.misses += missed
        return np.array(hits, dtype=bool)

    def contains(self, address: int) -> bool:
        """Whether the line holding an address is resident (no update)."""
        index, tag = self._index_tag(int(address))
        return tag in self._sets[index]

    @property
    def resident_lines(self) -> int:
        return sum(len(lru) for lru in self._sets)
