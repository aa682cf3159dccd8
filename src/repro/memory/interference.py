"""Analytical shared-resource interference model.

Co-running applications interact through two shared resources
(Table 2): the 8 MB L3 cache and the 25.6 GB/s memory bus.  This
module converts per-application demand (L3 access rate, DRAM traffic)
into the :class:`~repro.cores.base.MemoryEnvironment` each application
sees:

* **LLC capacity contention** -- capacity is split in proportion to
  the square root of each application's L3 access rate (an
  approximation of the equilibrium an LRU cache reaches under
  competing reference streams); a smaller share raises the
  application's effective L3 miss rate via its ``cache_sensitivity``.
* **Bandwidth contention** -- total DRAM traffic against the bus
  capacity sets a queueing-delay multiplier on DRAM latency.

Demands depend on the environments (fewer cache hits mean more DRAM
traffic), so :meth:`InterferenceModel.solve` iterates to a fixed
point; a couple of iterations suffice in practice.

:func:`contention` is the one routine behind every environment: it
takes plain (L3 rate, DRAM rate) pairs and returns the LLC shares and
the bus multiplier, checked as :class:`ApplicationDemand` and
:class:`~repro.cores.base.MemoryEnvironment` check them.  The segment
step calls it directly; :meth:`InterferenceModel.environments` wraps
its result in ``MemoryEnvironment`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.config.machines import MemoryConfig
from repro.cores.base import ISOLATED, MemoryEnvironment

#: Exponent applied to L3 demand when splitting capacity.
LLC_SHARE_EXPONENT = 0.5
#: Bus utilization above which queueing delay is clamped.
MAX_BUS_UTILIZATION = 0.90
#: Bytes transferred per DRAM access (one cache line).
LINE_BYTES = 64
#: Queueing-delay weight for the bandwidth model.
QUEUE_DELAY_WEIGHT = 0.5
#: Fixed-point iterations for demand <-> environment coupling.
SOLVE_ITERATIONS = 3


@dataclass(frozen=True)
class ApplicationDemand:
    """Shared-resource demand of one application over a quantum.

    Attributes:
        l3_accesses_per_second: L2 misses per second (LLC pressure).
        dram_accesses_per_second: L3 misses per second (bus traffic).
    """

    l3_accesses_per_second: float
    dram_accesses_per_second: float

    def __post_init__(self) -> None:
        if self.l3_accesses_per_second < 0 or self.dram_accesses_per_second < 0:
            raise ValueError("demands must be non-negative")


def llc_shares(
    demands: Sequence[float], exponent: float | None = None
) -> list[float]:
    """Split LLC capacity across applications by access demand.

    Returns one capacity fraction per application, summing to 1 (or
    each 1.0 when no application exerts demand).  Zero-demand
    applications receive a tiny floor share so their (rare) accesses
    still see a nonzero cache.  ``exponent`` defaults to the
    module-level :data:`LLC_SHARE_EXPONENT` (read at call time so
    sensitivity analyses can vary it).
    """
    if exponent is None:
        exponent = LLC_SHARE_EXPONENT
    if not demands:
        return []
    for d in demands:
        if d < 0:
            raise ValueError("demands must be non-negative")
    weights = [d**exponent for d in demands]
    total = sum(weights)
    if total <= 0:
        return [1.0] * len(demands)
    floor = 0.02 / len(demands)
    raw = []
    for w in weights:
        share = w / total
        raw.append(floor if floor > share else share)  # max(share, floor)
    norm = sum(raw)
    return [r / norm for r in raw]


def bandwidth_multiplier(
    total_bytes_per_second: float, capacity_bytes_per_second: float
) -> float:
    """DRAM latency multiplier under bus contention.

    A queueing-style delay: negligible at low utilization, growing as
    the bus saturates, clamped at :data:`MAX_BUS_UTILIZATION`.
    """
    if capacity_bytes_per_second <= 0:
        raise ValueError("bus capacity must be positive")
    if total_bytes_per_second < 0:
        raise ValueError("traffic must be non-negative")
    rho = min(total_bytes_per_second / capacity_bytes_per_second, MAX_BUS_UTILIZATION)
    return 1.0 + QUEUE_DELAY_WEIGHT * rho / (1.0 - rho)


def contention(
    demands: Sequence[tuple[float, float]], capacity_bytes_per_second: float
) -> tuple[list[float], float]:
    """(LLC share per application, DRAM latency multiplier) of a set of
    co-running demands.

    ``demands`` holds one (L3 accesses per second, DRAM accesses per
    second) pair per application.  A negative demand raises
    ``ValueError``, as constructing an :class:`ApplicationDemand` does,
    and so does a share outside (0, 1] or a multiplier below 1, as
    constructing a ``MemoryEnvironment`` does (a NaN L3 demand yields
    NaN shares).
    """
    l3_rates = [l3 for l3, _ in demands]
    dram_rates = [dram for _, dram in demands]
    for rate in dram_rates:  # llc_shares checks the L3 rates
        if rate < 0:
            raise ValueError("demands must be non-negative")
    shares = llc_shares(l3_rates)
    multiplier = bandwidth_multiplier(
        sum(dram_rates) * LINE_BYTES, capacity_bytes_per_second
    )
    for share in shares:
        if not 0.0 < share <= 1.0:
            raise ValueError("l3_share_fraction must be in (0, 1]")
    if multiplier < 1.0:
        raise ValueError("dram_latency_multiplier must be >= 1")
    return shares, multiplier


class InterferenceModel:
    """Fixed-point solver for shared-resource environments."""

    def __init__(self, memory: MemoryConfig):
        self.memory = memory

    def environments(
        self, demands: Sequence[ApplicationDemand]
    ) -> list[MemoryEnvironment]:
        """Environments implied by a set of per-application demands."""
        if not demands:
            return []
        shares, multiplier = contention(
            [
                (d.l3_accesses_per_second, d.dram_accesses_per_second)
                for d in demands
            ],
            self.memory.dram_bandwidth_gbps * 1e9,
        )
        return [MemoryEnvironment(share, multiplier) for share in shares]

    def solve(
        self,
        demand_of: Callable[[int, MemoryEnvironment], ApplicationDemand],
        count: int,
        iterations: int = SOLVE_ITERATIONS,
    ) -> list[MemoryEnvironment]:
        """Iterate demand -> environment -> demand to a fixed point.

        Args:
            demand_of: callback mapping (application index, candidate
                environment) to that application's demand under it.
            count: number of co-running applications.
            iterations: fixed-point iterations.
        """
        if count <= 0:
            return []
        envs = [ISOLATED] * count
        for _ in range(iterations):
            demands = [demand_of(i, envs[i]) for i in range(count)]
            envs = self.environments(demands)
        return envs
