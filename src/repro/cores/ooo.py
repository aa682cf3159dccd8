"""Trace-driven out-of-order core model.

An O(instructions) event model of the big core of Table 2: 4-wide
dispatch/commit, a 128-entry ROB, 64-entry issue queue, 64-entry
load/store queues, per-class functional units (unpipelined dividers),
front-end redirects on branch mispredictions, I-cache miss stalls, and
real cache-hierarchy latencies for loads.

The model first computes per-instruction pipeline timings
(:class:`WindowTiming`: dispatch, issue, finish and commit cycles),
then derives the exact residency intervals the paper's counter
architecture measures (Section 4.2): time in the ROB (commit -
dispatch), issue queue (issue - dispatch), load/store queue (commit -
dispatch), destination register (commit - finish) and functional unit
(execution latency) -- each clipped to the 12-bit timestamp range --
and accumulates ACE bit-cycles for correct-path, non-NOP state.

Wrong-path instructions after a mispredicted branch are never
dispatched (the correct path refetches after resolution), so during a
load miss that feeds a mispredicted branch the window naturally holds
no ACE state beyond the branch -- the low-AVF mechanism of
mcf/libquantum emerges from the timing.

The exposed timings also drive the Monte-Carlo fault-injection
validation in `repro.ace.faultinject`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.structures import StructureKind
from repro.cores.base import (
    ARCH_REG_LIVE_FRACTION,
    MemoryEnvironment,
    QuantumResult,
)
from repro.cores.tracebase import TraceApplication, TraceDrivenModel
from repro.isa.instruction import (
    FP_WRITERS,
    INT_WRITERS,
    NUM_CLASSES,
    InstructionClass,
    fu_bits_table,
)
from repro.kernels.window import ooo_simulate_window
from repro.obs import flight as obs_flight
from repro.obs.tracing import span

#: 12-bit per-ROB-entry timestamp counters clip residency here.
TIMESTAMP_CLIP = 4095

#: Live architectural-register fraction (shared model constant).
_ARCH_REG_LIVE_FRACTION = ARCH_REG_LIVE_FRACTION

#: Class -> functional-unit bits, and whether the class writes a
#: destination register / a floating-point one (indexed by class).
_FU_BITS = fu_bits_table()
_WRITES_REG = np.zeros(NUM_CLASSES, dtype=bool)
_WRITES_REG[sorted(INT_WRITERS | FP_WRITERS)] = True
_WRITES_FP = np.zeros(NUM_CLASSES, dtype=bool)
_WRITES_FP[sorted(FP_WRITERS)] = True


@dataclass
class WindowTiming:
    """Per-instruction pipeline timings for one executed window.

    All arrays cover the *committed* prefix of the window (length
    ``committed``).  Cycle values are relative to the window start.
    """

    classes: np.ndarray
    dispatch: np.ndarray
    issue: np.ndarray
    finish: np.ndarray
    commit: np.ndarray
    latency: np.ndarray
    mispredicted: np.ndarray
    committed: int
    elapsed_cycles: float

    def __post_init__(self) -> None:
        for name in ("dispatch", "issue", "finish", "commit", "latency",
                     "mispredicted"):
            if len(getattr(self, name)) != self.committed:
                raise ValueError(f"{name} must cover the committed prefix")


class OutOfOrderCoreModel(TraceDrivenModel):
    """Trace-driven model of the big out-of-order core."""

    def simulate_window(
        self,
        app: TraceApplication,
        start_instruction: int,
        cycles: float,
        env: MemoryEnvironment,
    ) -> WindowTiming:
        """Compute pipeline timings for a cycle budget of execution.

        Delegates to the vectorized kernel
        (:func:`repro.kernels.window.ooo_simulate_window`); the
        pre-kernel straight-line implementation is preserved as
        :func:`repro.kernels.reference.reference_ooo_window` and the
        two are cross-checked by the differential fuzzer.
        """
        recorder = obs_flight.ACTIVE
        if recorder is not None:
            recorder.note(
                "ooo.simulate_window",
                app=app.name,
                start=start_instruction,
                cycles=cycles,
            )
        with span("ooo.simulate_window"):
            return ooo_simulate_window(
                self, app, start_instruction, cycles, env
            )

    def run_cycles(
        self,
        app: TraceApplication,
        start_instruction: int,
        cycles: float,
        env: MemoryEnvironment,
    ) -> QuantumResult:
        if cycles <= 0:
            return QuantumResult.zero()
        hierarchy = self.hierarchy_for(app)
        l3_start = hierarchy.l3_accesses
        dram_start = hierarchy.dram_accesses
        timing = self.simulate_window(app, start_instruction, cycles, env)
        ace, occupancy = self._account(timing)
        return QuantumResult(
            instructions=timing.committed,
            cycles=timing.elapsed_cycles,
            ace_bit_cycles=ace,
            occupancy_bit_cycles=occupancy,
            memory_accesses=float(hierarchy.dram_accesses - dram_start),
            l3_accesses=float(hierarchy.l3_accesses - l3_start),
            branch_mispredictions=float(timing.mispredicted.sum()),
        )

    def _account(
        self, timing: WindowTiming
    ) -> tuple[dict[StructureKind, float], dict[StructureKind, float]]:
        """Vectorized ACE/occupancy accounting from window timings."""
        core = self.core
        assert core.rob is not None and core.load_queue is not None
        classes = timing.classes
        non_nop = classes != InstructionClass.NOP
        is_load = classes == InstructionClass.LOAD
        is_store = classes == InstructionClass.STORE
        writers = _WRITES_REG[classes]
        fp_writers = _WRITES_FP[classes]

        rob_res = np.minimum(timing.commit - timing.dispatch, TIMESTAMP_CLIP)
        iq_res = np.minimum(timing.issue - timing.dispatch, TIMESTAMP_CLIP)
        reg_res = np.minimum(timing.commit - timing.finish, TIMESTAMP_CLIP)
        fu_res = np.minimum(timing.latency, TIMESTAMP_CLIP)
        reg_bits = np.where(fp_writers, 128.0, 64.0)
        fu_res_bits = fu_res * _FU_BITS[classes]

        occupancy = {
            StructureKind.ROB: float(rob_res.sum()) * core.rob.bits_per_entry,
            StructureKind.ISSUE_QUEUE: float(iq_res.sum())
            * core.issue_queue.bits_per_entry,
            StructureKind.LOAD_QUEUE: float(rob_res[is_load].sum())
            * core.load_queue.bits_per_entry,
            StructureKind.STORE_QUEUE: float(rob_res[is_store].sum())
            * core.store_queue.bits_per_entry,
            StructureKind.REGISTER_FILE: float(
                (reg_res * reg_bits)[writers].sum()
            ),
            StructureKind.FUNCTIONAL_UNITS: float(fu_res_bits[non_nop].sum()),
        }
        ace = {
            StructureKind.ROB: float(rob_res[non_nop].sum())
            * core.rob.bits_per_entry,
            StructureKind.ISSUE_QUEUE: float(iq_res[non_nop].sum())
            * core.issue_queue.bits_per_entry,
            StructureKind.LOAD_QUEUE: occupancy[StructureKind.LOAD_QUEUE],
            StructureKind.STORE_QUEUE: occupancy[StructureKind.STORE_QUEUE],
            StructureKind.REGISTER_FILE: occupancy[
                StructureKind.REGISTER_FILE
            ],
            StructureKind.FUNCTIONAL_UNITS: occupancy[
                StructureKind.FUNCTIONAL_UNITS
            ],
        }
        arch = (
            core.register_file.arch_bits
            * _ARCH_REG_LIVE_FRACTION
            * timing.elapsed_cycles
        )
        ace[StructureKind.REGISTER_FILE] += arch
        occupancy[StructureKind.REGISTER_FILE] += arch
        return ace, occupancy
