"""Cross-run batched simulation (`repro.batch`).

One struct-of-arrays :class:`~repro.batch.simstate.SimState` advances
an entire sweep -- every workload mix x machine x scheduler -- quantum
by quantum as numpy array ops, dispatching to batched variants of the
mechanistic phase analysis (:mod:`repro.batch.analysis`).  The scalar
engine (:mod:`repro.sim.multicore`) stays the reference
implementation: batched results are byte-identical to it (see
``docs/batching.md`` for the tolerance policy) and are differentially
fuzzed against it by ``repro check --batch-cases``.
"""

from repro.batch.analysis import (
    BatchPhaseAnalysis,
    STRUCTURE_COLUMNS,
    analyze_phase_batch,
)
from repro.batch.simstate import SimState
from repro.batch.sweep import (
    BatchRunRequest,
    BatchedExecutionEngine,
    BatchedSweep,
    run_workload_batch,
    run_workloads_batched,
)
from repro.cores.mechanistic import PhaseFeatures

__all__ = [
    "BatchPhaseAnalysis",
    "BatchRunRequest",
    "BatchedExecutionEngine",
    "BatchedSweep",
    "PhaseFeatures",
    "STRUCTURE_COLUMNS",
    "SimState",
    "analyze_phase_batch",
    "run_workload_batch",
    "run_workloads_batched",
]
