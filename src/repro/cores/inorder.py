"""Trace-driven in-order core model.

An O(instructions) scoreboard model of the small core of Table 2: a
2-wide, 5-stage stall-on-use pipeline with a tiny issue queue, a
store queue, per-class functional units, and real cache-hierarchy
latencies.  Misses are not overlapped (MLP ~ 1): a consumer of a
missing load stalls the whole pipeline.

ACE accounting follows the paper's in-order counter (Section 4.2):
each instruction's fetch-to-writeback residency times the
pipeline-latch width, plus functional-unit occupancy, plus issue/store
queue residency; NOPs are non-ACE.
"""

from __future__ import annotations

from repro.cores.base import (
    ARCH_REG_LIVE_FRACTION,
    MemoryEnvironment,
    QuantumResult,
)
from repro.cores.tracebase import TraceApplication, TraceDrivenModel
from repro.kernels.window import inorder_run_cycles
from repro.obs import flight as obs_flight
from repro.obs.tracing import span

#: 10-bit fetch-time counters clip residency here (Section 4.2).
TIMESTAMP_CLIP = 1023

#: Live architectural-register fraction (shared model constant).
_ARCH_REG_LIVE_FRACTION = ARCH_REG_LIVE_FRACTION


class InOrderCoreModel(TraceDrivenModel):
    """Trace-driven model of the small in-order core."""

    def run_cycles(
        self,
        app: TraceApplication,
        start_instruction: int,
        cycles: float,
        env: MemoryEnvironment,
    ) -> QuantumResult:
        """Execute one cycle budget of the in-order pipeline.

        Delegates to the vectorized kernel
        (:func:`repro.kernels.window.inorder_run_cycles`); the
        pre-kernel straight-line implementation is preserved as
        :func:`repro.kernels.reference.reference_inorder_run` and the
        two are cross-checked by the differential fuzzer.  The
        kernel's vectorized ACE accounting reassociates the residency
        sums, so accounting totals can differ from the reference at
        floating-point rounding level (~1e-15 relative).
        """
        recorder = obs_flight.ACTIVE
        if recorder is not None:
            recorder.note(
                "inorder.run_cycles",
                app=app.name,
                start=start_instruction,
                cycles=cycles,
            )
        with span("inorder.run_cycles"):
            return inorder_run_cycles(
                self, app, start_instruction, cycles, env
            )
