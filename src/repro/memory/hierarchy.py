"""Multi-level cache hierarchy for the trace-driven core models.

Each core owns private L1I/L1D/L2 caches; the L3 is shared between the
cores of one machine (pass the same :class:`SetAssociativeCache`
instance to several hierarchies to model sharing).  A data access
walks the levels and returns the load-to-use latency in cycles.

:meth:`CacheHierarchy.data_walk` is the one implementation of the
fast data walk: a generator that holds the L1D, L2 and L3 state in
local variables while it is open and accesses one address per
``send``.  The `repro.kernels` window kernels send each load and store
as their recurrence reaches it, so a window walks exactly the accesses
the scalar path would; :meth:`CacheHierarchy.access_data_batch` sends
a whole address vector (the trace profiler's entry point).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.machines import MemoryConfig
from repro.memory.cache import SetAssociativeCache
from repro.obs import metrics as obs_metrics

#: Level codes returned by :meth:`CacheHierarchy.access_data_batch`.
LEVEL_L1, LEVEL_L2, LEVEL_L3, LEVEL_DRAM = 0, 1, 2, 3

#: Level code -> level name used by the scalar API.
LEVEL_NAMES = ("l1", "l2", "l3", "dram")


@dataclass
class AccessOutcome:
    """Result of one memory access.

    Attributes:
        latency_cycles: load-to-use latency in core cycles.
        level: the level that serviced the access
            (``"l1"``, ``"l2"``, ``"l3"`` or ``"dram"``).
    """

    latency_cycles: float
    level: str


class CacheHierarchy:
    """Private L1I/L1D/L2 in front of a (possibly shared) L3.

    Attributes:
        dram_accesses: number of accesses serviced by DRAM.
        l3_accesses: number of accesses reaching the L3 (L2 misses).
    """

    def __init__(
        self,
        memory: MemoryConfig,
        frequency_ghz: float,
        shared_l3: SetAssociativeCache | None = None,
    ):
        self.memory = memory
        self.frequency_ghz = frequency_ghz
        self.l1i = SetAssociativeCache(memory.l1i, "l1i")
        self.l1d = SetAssociativeCache(memory.l1d, "l1d")
        self.l2 = SetAssociativeCache(memory.l2, "l2")
        self.l3 = shared_l3 if shared_l3 is not None else SetAssociativeCache(
            memory.l3, "l3"
        )
        self.dram_accesses = 0
        self.l3_accesses = 0

    @property
    def dram_latency_cycles(self) -> float:
        return self.memory.dram_latency_cycles(self.frequency_ghz)

    def access_data(self, address: int) -> AccessOutcome:
        """Access the data path: L1D -> L2 -> L3 -> DRAM."""
        if self.l1d.access(address):
            return AccessOutcome(self.memory.l1d.latency_cycles, "l1")
        if self.l2.access(address):
            return AccessOutcome(
                self.memory.l1d.latency_cycles + self.memory.l2.latency_cycles, "l2"
            )
        self.l3_accesses += 1
        if self.l3.access(address):
            return AccessOutcome(
                self.memory.l1d.latency_cycles
                + self.memory.l2.latency_cycles
                + self.memory.l3.latency_cycles,
                "l3",
            )
        self.dram_accesses += 1
        return AccessOutcome(
            self.memory.l1d.latency_cycles
            + self.memory.l2.latency_cycles
            + self.memory.l3.latency_cycles
            + self.dram_latency_cycles,
            "dram",
        )

    @property
    def data_latencies(self) -> tuple[float, float, float, float]:
        """Load-to-use latency of a data access serviced by L1, L2, L3
        and DRAM, indexed by level code.  The sums follow the
        association order of :meth:`access_data`, so they are
        bit-identical to its latencies."""
        memory = self.memory
        l1 = memory.l1d.latency_cycles
        l2 = memory.l2.latency_cycles
        l3 = memory.l3.latency_cycles
        return (
            float(l1),
            float(l1 + l2),
            float(l1 + l2 + l3),
            l1 + l2 + l3 + self.dram_latency_cycles,
        )

    def data_walk(self):
        """Walk the data path, L1D -> L2 -> L3 -> DRAM, one address at
        a time: the fast walk behind the window kernels and
        :meth:`access_data_batch`.

        A generator: prime it with ``send(None)``; each
        ``send(address)`` then accesses one byte address exactly as
        :meth:`access_data` would (same hit/miss pattern, LRU state and
        statistics) and returns the servicing level's code
        (:data:`LEVEL_L1` .. :data:`LEVEL_DRAM`).  While it is open the
        three caches' sets, clocks and counters live in local
        variables; closing it writes the clocks, cache statistics,
        hierarchy counters and ``cache.accesses{level}`` metrics back.
        Nothing else may access these caches -- a shared L3 included --
        until it is closed.
        """
        l1, l2, l3 = self.l1d, self.l2, self.l3
        sets1, sets2, sets3 = l1._sets, l2._sets, l3._sets
        shift1, shift2, shift3 = (
            l1._line_shift, l2._line_shift, l3._line_shift
        )
        nsets1, nsets2, nsets3 = l1._num_sets, l2._num_sets, l3._num_sets
        ways1, ways2, ways3 = l1._ways, l2._ways, l3._ways
        # Every access that reaches a level ticks its clock, so the
        # clock deltas are the per-level access counts, and a level's
        # misses are the next level's accesses.
        clk1 = start1 = l1._clock
        clk2 = start2 = l2._clock
        clk3 = start3 = l3._clock
        dram = 0
        level = None
        try:
            while True:
                address = yield level
                clk1 += 1
                line = address >> shift1
                lru = sets1[line % nsets1]
                tag = line // nsets1
                if tag in lru:
                    lru[tag] = clk1
                    level = 0
                    continue
                if len(lru) >= ways1:
                    del lru[min(lru, key=lru.__getitem__)]
                lru[tag] = clk1
                clk2 += 1
                line = address >> shift2
                lru = sets2[line % nsets2]
                tag = line // nsets2
                if tag in lru:
                    lru[tag] = clk2
                    level = 1
                    continue
                if len(lru) >= ways2:
                    del lru[min(lru, key=lru.__getitem__)]
                lru[tag] = clk2
                clk3 += 1
                line = address >> shift3
                lru = sets3[line % nsets3]
                tag = line // nsets3
                if tag in lru:
                    lru[tag] = clk3
                    level = 2
                    continue
                if len(lru) >= ways3:
                    del lru[min(lru, key=lru.__getitem__)]
                lru[tag] = clk3
                dram += 1
                level = 3
        finally:
            acc1, acc2, acc3 = clk1 - start1, clk2 - start2, clk3 - start3
            l1._clock, l2._clock, l3._clock = clk1, clk2, clk3
            l1.stats.accesses += acc1
            l1.stats.misses += acc2
            l2.stats.accesses += acc2
            l2.stats.misses += acc3
            l3.stats.accesses += acc3
            l3.stats.misses += dram
            self.l3_accesses += acc3
            self.dram_accesses += dram
            reg = obs_metrics.ACTIVE
            if reg is not None:
                reg.counter("cache.accesses", level="l1").inc(acc1)
                reg.counter("cache.accesses", level="l2").inc(acc2)
                reg.counter("cache.accesses", level="l3").inc(acc3)
                reg.counter("cache.accesses", level="dram").inc(dram)

    def access_data_batch(
        self, addresses: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Walk the data path for a whole address vector in order.

        Semantically identical to calling :meth:`access_data` once per
        address: same hit/miss pattern, LRU state, statistics and
        latencies, through one :meth:`data_walk`.

        Returns:
            ``(latencies, levels)``: per-access load-to-use latency in
            cycles (float64) and servicing-level codes (int8:
            0=L1, 1=L2, 2=L3, 3=DRAM).
        """
        walk = self.data_walk()
        send = walk.send
        send(None)
        levels = np.array(
            [send(a) for a in np.asarray(addresses, dtype=np.int64).tolist()],
            dtype=np.int8,
        )
        walk.close()
        latencies = np.array(self.data_latencies, dtype=np.float64)[levels]
        return latencies, levels

    def access_instruction(self, address: int) -> AccessOutcome:
        """Access the instruction path: L1I -> L2 (-> L3 -> DRAM)."""
        if self.l1i.access(address):
            return AccessOutcome(0.0, "l1")  # hit latency hidden by pipelining
        if self.l2.access(address):
            return AccessOutcome(self.memory.l2.latency_cycles, "l2")
        self.l3_accesses += 1
        if self.l3.access(address):
            return AccessOutcome(
                self.memory.l2.latency_cycles + self.memory.l3.latency_cycles, "l3"
            )
        self.dram_accesses += 1
        return AccessOutcome(
            self.memory.l2.latency_cycles
            + self.memory.l3.latency_cycles
            + self.dram_latency_cycles,
            "dram",
        )

    def reset_stats(self) -> None:
        for cache in (self.l1i, self.l1d, self.l2, self.l3):
            cache.stats.reset()
        self.dram_accesses = 0
        self.l3_accesses = 0
