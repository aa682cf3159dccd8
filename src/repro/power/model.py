"""Activity-based power model (McPAT substitute for Figure 12).

Average power over a run is assembled from:

* per-core **static** power (big cores leak more than small ones);
* per-instruction **dynamic** energy, with a big-core instruction
  costing ~3x a small-core one (wider pipeline, larger structures);
* **occupancy** power proportional to resident state bits (clocked
  latches and wakeup/select activity scale with queue occupancy --
  this is what makes high-ABC applications expensive on big cores,
  the mechanism behind Figure 12);
* shared **L3** static power plus per-access energy;
* **DRAM** background power plus per-access energy (system power).

Only relative comparisons across schedulers matter for Figure 12; the
constants are plausible 32 nm-class values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config.machines import MachineConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.results import RunResult

#: Static power per big core (W).
BIG_STATIC_W = 0.8
#: Static power per small core (W).
SMALL_STATIC_W = 0.25
#: Dynamic energy per committed instruction, big core (J).
BIG_EPI_J = 0.35e-9
#: Dynamic energy per committed instruction, small core (J).
SMALL_EPI_J = 0.15e-9
#: Power per resident state bit (W/bit) -- occupancy-driven clock and
#: wakeup/select activity.
OCCUPANCY_W_PER_BIT = 1.3e-4
#: Shared L3 static power (W).
L3_STATIC_W = 1.0
#: Energy per L3 access (J).
L3_ACCESS_J = 1.2e-9
#: DRAM background power (W).
DRAM_BACKGROUND_W = 0.6
#: Energy per DRAM access (J, one line transfer).
DRAM_ACCESS_J = 15e-9


@dataclass(frozen=True)
class PowerBreakdown:
    """Average power of one run, in watts.

    ``chip_watts`` covers the cores plus the L3 (the paper's
    "chip-level power including L3"); ``system_watts`` adds DRAM.
    """

    core_dynamic_watts: float
    core_static_watts: float
    occupancy_watts: float
    l3_watts: float
    dram_watts: float

    @property
    def chip_watts(self) -> float:
        return (
            self.core_dynamic_watts
            + self.core_static_watts
            + self.occupancy_watts
            + self.l3_watts
        )

    @property
    def system_watts(self) -> float:
        return self.chip_watts + self.dram_watts


class PowerModel:
    """Computes average power for simulation runs on a machine."""

    def __init__(self, machine: MachineConfig):
        self.machine = machine

    def run_power(self, result: RunResult) -> PowerBreakdown:
        """Average power over a completed simulation run."""
        duration = result.duration_seconds
        if duration <= 0:
            raise ValueError("run has no duration")
        dynamic_j = 0.0
        occupancy_bit_seconds = 0.0
        l3_j = 0.0
        dram_j = 0.0
        for app in result.apps:
            dynamic_j += app.instructions_big * BIG_EPI_J
            dynamic_j += app.instructions_small * SMALL_EPI_J
            occupancy_bit_seconds += app.occupancy_bit_seconds
            l3_j += app.l3_accesses * L3_ACCESS_J
            dram_j += app.dram_accesses * DRAM_ACCESS_J
        static_w = (
            self.machine.big_cores * BIG_STATIC_W
            + self.machine.small_cores * SMALL_STATIC_W
        )
        return PowerBreakdown(
            core_dynamic_watts=dynamic_j / duration,
            core_static_watts=static_w,
            occupancy_watts=OCCUPANCY_W_PER_BIT
            * occupancy_bit_seconds
            / duration,
            l3_watts=L3_STATIC_W + l3_j / duration,
            dram_watts=DRAM_BACKGROUND_W + dram_j / duration,
        )
