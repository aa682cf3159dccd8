"""Core model interface.

Everything above the core models (the multicore simulator and the
schedulers) consumes only this interface: *run this application's next
instructions on this core type and report cycles plus per-structure
ACE-bit counts*.  Two implementations exist:

* :class:`repro.cores.mechanistic.MechanisticCoreModel` -- a
  first-order analytical model (interval CPI model plus Little's-law
  occupancy analysis), O(1) per quantum, used for paper-scale runs.
* the trace-driven pipeline models in `repro.cores.ooo` and
  `repro.cores.inorder`, O(instructions), used for validation and
  small-scale studies.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.config.cores import CoreConfig
from repro.config.structures import StructureKind

#: Fraction of architectural registers holding live (ACE) values at
#: any time; a register is ACE from write to last read, and live-range
#: studies put the live fraction around a fifth to a third.  Shared by
#: every core model (mechanistic, trace-driven) and the fault injector.
ARCH_REG_LIVE_FRACTION = 0.20

#: Structure keys used in ACE-bit breakdowns, in display order.
ACE_STRUCTURES = (
    StructureKind.ROB,
    StructureKind.ISSUE_QUEUE,
    StructureKind.LOAD_QUEUE,
    StructureKind.STORE_QUEUE,
    StructureKind.REGISTER_FILE,
    StructureKind.FUNCTIONAL_UNITS,
    StructureKind.PIPELINE_LATCHES,
)


@dataclass(frozen=True)
class MemoryEnvironment:
    """Shared-resource conditions a core sees during one quantum.

    Attributes:
        l3_share_fraction: fraction of the shared LLC capacity
            effectively available to this application (1.0 when running
            alone).
        dram_latency_multiplier: DRAM latency inflation due to
            bandwidth contention (1.0 when running alone).
    """

    l3_share_fraction: float = 1.0
    dram_latency_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.l3_share_fraction <= 1.0:
            raise ValueError("l3_share_fraction must be in (0, 1]")
        if self.dram_latency_multiplier < 1.0:
            raise ValueError("dram_latency_multiplier must be >= 1")


ISOLATED = MemoryEnvironment()


@dataclass
class QuantumResult:
    """What a core reports after executing part of an application.

    Attributes:
        instructions: committed (correct-path) instructions, including
            NOPs.
        cycles: elapsed core cycles.
        ace_bit_cycles: per-structure ACE bit-cycles: the integral of
            ACE bits resident in each structure over the cycles.  This
            is what the paper's hardware ACE-bit counters accumulate.
        occupancy_bit_cycles: per-structure *total* occupied bit-cycles
            (ACE or not); used for occupancy diagnostics.
        memory_accesses: DRAM accesses issued (for bandwidth/power
            accounting).
        l3_accesses: L3 accesses issued (L2 misses).
        branch_mispredictions: mispredicted branches committed (an
            ordinary performance-counter quantity, used by
            counter-free ABC predictors).
    """

    instructions: int
    cycles: float
    ace_bit_cycles: dict[StructureKind, float] = field(default_factory=dict)
    occupancy_bit_cycles: dict[StructureKind, float] = field(default_factory=dict)
    memory_accesses: float = 0.0
    l3_accesses: float = 0.0
    branch_mispredictions: float = 0.0

    @property
    def total_ace_bit_cycles(self) -> float:
        return sum(self.ace_bit_cycles.values())

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def ace_bits_per_cycle(self) -> float:
        """Average ACE bits resident per cycle (the SER ~ ABC/T rate)."""
        return self.total_ace_bit_cycles / self.cycles if self.cycles else 0.0

    def avf(self, core: CoreConfig) -> float:
        """Core-level architectural vulnerability factor."""
        capacity = core.total_ace_capacity_bits
        return self.ace_bits_per_cycle() / capacity if capacity else 0.0

    def merged_with(self, other: "QuantumResult") -> "QuantumResult":
        """Accumulate another result into a combined one."""
        ace = dict(self.ace_bit_cycles)
        for kind, value in other.ace_bit_cycles.items():
            ace[kind] = ace.get(kind, 0.0) + value
        occ = dict(self.occupancy_bit_cycles)
        for kind, value in other.occupancy_bit_cycles.items():
            occ[kind] = occ.get(kind, 0.0) + value
        return QuantumResult(
            instructions=self.instructions + other.instructions,
            cycles=self.cycles + other.cycles,
            ace_bit_cycles=ace,
            occupancy_bit_cycles=occ,
            memory_accesses=self.memory_accesses + other.memory_accesses,
            l3_accesses=self.l3_accesses + other.l3_accesses,
            branch_mispredictions=self.branch_mispredictions
            + other.branch_mispredictions,
        )

    def clipped(self, instructions: int) -> "QuantumResult":
        """This result cut back to its first ``instructions``.

        Every additive field is scaled by the committed fraction, as
        when a slice overruns the end of its application.
        """
        scale = instructions / self.instructions
        return QuantumResult(
            instructions=instructions,
            cycles=self.cycles * scale,
            ace_bit_cycles={
                k: v * scale for k, v in self.ace_bit_cycles.items()
            },
            occupancy_bit_cycles={
                k: v * scale for k, v in self.occupancy_bit_cycles.items()
            },
            memory_accesses=self.memory_accesses * scale,
            l3_accesses=self.l3_accesses * scale,
            branch_mispredictions=self.branch_mispredictions * scale,
        )

    @staticmethod
    def zero() -> "QuantumResult":
        return QuantumResult(instructions=0, cycles=0.0)


class CoreModel(abc.ABC):
    """Executes slices of an application on a configured core."""

    def __init__(self, core: CoreConfig):
        self.core = core

    @abc.abstractmethod
    def run_cycles(
        self, app, start_instruction: int, cycles: float, env: MemoryEnvironment
    ) -> QuantumResult:
        """Run an application for (about) a number of cycles.

        Args:
            app: the application handle (model-specific: a
                :class:`~repro.workloads.characteristics.BenchmarkProfile`
                for the mechanistic model, a trace-backed application
                for the pipeline models).
            start_instruction: position in the application's dynamic
                instruction stream (wraps modulo the application length
                for restarted applications).
            cycles: cycle budget for the slice.
            env: shared-resource conditions.

        Returns:
            the committed instructions, actual cycles (close to the
            budget), and ACE-bit accounting for the slice.
        """
