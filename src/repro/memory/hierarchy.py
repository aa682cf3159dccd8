"""Multi-level cache hierarchy for the trace-driven core models.

Each core owns private L1I/L1D/L2 caches; the L3 is shared between the
cores of one machine (pass the same :class:`SetAssociativeCache`
instance to several hierarchies to model sharing).  A data access
walks the levels and returns the load-to-use latency in cycles.

:meth:`CacheHierarchy.access_data_batch` walks a whole address vector
in one pass -- the batched entry point used by the `repro.kernels`
window kernels and the trace profiler.  The batch walk can record an
undo journal so a caller that over-ran a budget boundary (the window
kernels batch slightly past the committed prefix) can roll the cache
state and statistics back to an exact access prefix with
:meth:`CacheHierarchy.rollback_data`.
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

    def access_data_batch(
        self,
        addresses: np.ndarray,
        journal: list | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Walk the data path for a whole address vector in order.

        Semantically identical to calling :meth:`access_data` once per
        address: same hit/miss pattern, LRU state, statistics and
        latencies.  Set indices and tags for every level are extracted
        vectorized up front; the walk itself is one tight loop over
        plain Python ints with no per-call attribute lookups.

        Args:
            addresses: byte addresses of the accesses, in program
                order.
            journal: optional list; when given, one undo entry per
                access is appended so a suffix of the accesses can be
                undone with :meth:`rollback_data`.

        Returns:
            ``(latencies, levels)``: per-access load-to-use latency in
            cycles (float64) and servicing-level codes (int8:
            0=L1, 1=L2, 2=L3, 3=DRAM).
        """
        n = len(addresses)
        if n == 0:
            return np.zeros(0, dtype=np.float64), np.zeros(0, dtype=np.int8)
        memory = self.memory
        # Latency sums follow the exact association order of the
        # scalar path so results stay bit-identical.
        lat1 = memory.l1d.latency_cycles
        lat2 = memory.l1d.latency_cycles + memory.l2.latency_cycles
        lat3 = (
            memory.l1d.latency_cycles
            + memory.l2.latency_cycles
            + memory.l3.latency_cycles
        )
        lat4 = (
            memory.l1d.latency_cycles
            + memory.l2.latency_cycles
            + memory.l3.latency_cycles
            + self.dram_latency_cycles
        )
        l1, l2, l3 = self.l1d, self.l2, self.l3
        per_level = []
        for cache in (l1, l2, l3):
            lines = np.asarray(addresses, dtype=np.int64) >> cache._line_shift
            per_level.append((
                (lines % cache._num_sets).tolist(),
                (lines // cache._num_sets).tolist(),
            ))
        (idx1, tag1), (idx2, tag2), (idx3, tag3) = per_level
        sets1, sets2, sets3 = l1._sets, l2._sets, l3._sets
        ways1, ways2, ways3 = l1._ways, l2._ways, l3._ways
        clk1, clk2, clk3 = l1._clock, l2._clock, l3._clock
        acc2 = acc3 = 0
        miss1 = miss2 = miss3 = 0
        dram = 0
        latencies: list[float] = []
        levels: list[int] = []
        lat_append = latencies.append
        lev_append = levels.append
        record = journal.append if journal is not None else None
        for i in range(n):
            # -- L1D --
            clk1 += 1
            t = tag1[i]
            lru = sets1[idx1[i]]
            prev = lru.get(t)
            if prev is not None:
                lru[t] = clk1
                if record is not None:
                    record(((l1, lru, t, prev, None, 0),))
                lat_append(lat1)
                lev_append(0)
                continue
            miss1 += 1
            victim = victim_clock = None
            if len(lru) >= ways1:
                victim = min(lru, key=lru.__getitem__)
                victim_clock = lru.pop(victim)
            lru[t] = clk1
            if record is not None:
                records = ((l1, lru, t, None, victim, victim_clock),)
            # -- L2 --
            clk2 += 1
            acc2 += 1
            t = tag2[i]
            lru = sets2[idx2[i]]
            prev = lru.get(t)
            if prev is not None:
                lru[t] = clk2
                if record is not None:
                    record(records + ((l2, lru, t, prev, None, 0),))
                lat_append(lat2)
                lev_append(1)
                continue
            miss2 += 1
            victim = victim_clock = None
            if len(lru) >= ways2:
                victim = min(lru, key=lru.__getitem__)
                victim_clock = lru.pop(victim)
            lru[t] = clk2
            if record is not None:
                records = records + ((l2, lru, t, None, victim, victim_clock),)
            # -- L3 --
            clk3 += 1
            acc3 += 1
            t = tag3[i]
            lru = sets3[idx3[i]]
            prev = lru.get(t)
            if prev is not None:
                lru[t] = clk3
                if record is not None:
                    record(records + ((l3, lru, t, prev, None, 0),))
                lat_append(lat3)
                lev_append(2)
                continue
            miss3 += 1
            victim = victim_clock = None
            if len(lru) >= ways3:
                victim = min(lru, key=lru.__getitem__)
                victim_clock = lru.pop(victim)
            lru[t] = clk3
            if record is not None:
                record(records + ((l3, lru, t, None, victim, victim_clock),))
            dram += 1
            lat_append(lat4)
            lev_append(3)
        l1._clock = clk1
        l2._clock = clk2
        l3._clock = clk3
        l1.stats.accesses += n
        l1.stats.misses += miss1
        l2.stats.accesses += acc2
        l2.stats.misses += miss2
        l3.stats.accesses += acc3
        l3.stats.misses += miss3
        self.l3_accesses += acc3
        self.dram_accesses += dram
        reg = obs_metrics.ACTIVE
        if reg is not None:
            reg.counter("cache.accesses", level="l1").inc(n)
            reg.counter("cache.accesses", level="l2").inc(acc2)
            reg.counter("cache.accesses", level="l3").inc(acc3)
            reg.counter("cache.accesses", level="dram").inc(dram)
        return (
            np.array(latencies, dtype=np.float64),
            np.array(levels, dtype=np.int8),
        )

    def rollback_data(
        self, journal: list, levels: np.ndarray, keep: int
    ) -> None:
        """Undo all but the first ``keep`` accesses of a batch walk.

        ``journal`` and ``levels`` must come from one
        :meth:`access_data_batch` call.  After the rollback the cache
        state, statistics and hierarchy counters are exactly as if
        only the first ``keep`` addresses had been accessed.
        """
        for entry in reversed(journal[keep:]):
            for cache, lru, tag, prev, victim, victim_clock in reversed(entry):
                if prev is not None:
                    lru[tag] = prev
                else:
                    del lru[tag]
                    if victim is not None:
                        lru[victim] = victim_clock
                    cache.stats.misses -= 1
                cache._clock -= 1
                cache.stats.accesses -= 1
        # Levels: 0 = L1 hit, 1 = L2, 2 = L3, 3 = DRAM -- an access
        # touches every level up to where it hit.
        undone = levels[keep:]
        l3 = int(np.count_nonzero(undone >= LEVEL_L3))
        dram = int(np.count_nonzero(undone == LEVEL_DRAM))
        self.l3_accesses -= l3
        self.dram_accesses -= dram
        reg = obs_metrics.ACTIVE
        if reg is not None and len(undone):
            # access_data_batch already counted the rolled-back tail
            # in the observability registry; decrement so the metrics
            # agree with the cache statistics.
            reg.counter("cache.accesses", level="l1").inc(-len(undone))
            reg.counter("cache.accesses", level="l2").inc(
                -int(np.count_nonzero(undone >= LEVEL_L2))
            )
            reg.counter("cache.accesses", level="l3").inc(-l3)
            reg.counter("cache.accesses", level="dram").inc(-dram)
        del journal[keep:]

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
