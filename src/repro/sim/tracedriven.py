"""Trace-driven multiprogram simulation.

Wires the trace-driven pipeline models into the multicore engine with
a *really shared* L3 cache: the big- and small-core models of one
machine reference the same :class:`SetAssociativeCache` instance, so
LLC capacity contention between co-running applications is physical
rather than analytical.  (Memory-bus queueing still comes from the
analytical bandwidth model, which the trace models consume through the
DRAM-latency multiplier.)

This path is O(instructions) -- use it for validation and small-scale
studies (10^5..10^7 instructions); the mechanistic path covers
paper-scale runs.

Each application's isolated reference run is memoized by content
(:data:`REFERENCE_MEMO_CAP`), so one mix under several schedulers
runs its reference passes once.  A reference run warms the
application's private caches with one walk of its loads and stores,
then times one isolated pass.
"""

from __future__ import annotations

from typing import Sequence

from repro.ace.counters import AceCounterMode
from repro.config.cores import CoreConfig
from repro.config.machines import MachineConfig, MemoryConfig
from repro.cores.base import CoreModel
from repro.cores.inorder import InOrderCoreModel
from repro.cores.ooo import OutOfOrderCoreModel
from repro.cores.tracebase import TraceApplication
from repro.isa.instruction import InstructionClass
from repro.memory.cache import SetAssociativeCache
from repro.obs.tracing import span
from repro.sim.experiment import make_scheduler
from repro.sim.isolated import ReferenceTimes, run_isolated
from repro.sim.multicore import MulticoreSimulation
from repro.sim.results import RunResult
from repro.kernels.trace_cache import cached_generate_trace
from repro.workloads.characteristics import BenchmarkProfile
from repro.workloads.mixes import WorkloadMix
from repro.workloads.spec2006 import benchmark

#: Isolated reference runs remembered before the memo is emptied.  An
#: entry is one float, so the cap only bounds a long sweep over many
#: distinct traces.
REFERENCE_MEMO_CAP = 256

#: ``(big core, memory, profile, instructions, trace seed)`` -> the
#: big-core cycles of the application's measured isolated pass.
_reference_memo: dict[
    tuple[CoreConfig, MemoryConfig, BenchmarkProfile, int, int], float
] = {}


def trace_driven_models(machine: MachineConfig) -> dict[str, CoreModel]:
    """Big/small trace-driven models sharing one physical L3."""
    shared_l3 = SetAssociativeCache(machine.memory.l3, "shared-l3")
    return {
        "big": OutOfOrderCoreModel(
            machine.big, machine.memory, shared_l3=shared_l3
        ),
        "small": InOrderCoreModel(
            machine.small, machine.memory, shared_l3=shared_l3
        ),
    }


def trace_applications(
    names: Sequence[str], instructions: int, seed: int = 0
) -> list[TraceApplication]:
    """Generate trace-backed applications for benchmark names."""
    return [
        TraceApplication(
            cached_generate_trace(benchmark(name), instructions, seed=seed + i)
        )
        for i, name in enumerate(names)
    ]


def _reference_cycles(
    model: OutOfOrderCoreModel,
    app: TraceApplication,
    profile: BenchmarkProfile,
    instructions: int,
    seed: int,
) -> float:
    """Isolated big-core cycles of ``app``, the trace generated from
    ``(profile, instructions, seed)``.

    The application's private caches are warmed first: in the mix the
    applications run repeatedly with warm private caches, so a
    cold-cache reference would overestimate T_ref at trace scale.  The
    warm-up is one walk of the trace's loads and stores in program
    order.  Those are the accesses a timed isolated pass makes when it
    commits the trace in one :func:`run_isolated` chunk, as every
    profile does at 20k and 200k instructions, so the walk leaves the
    caches as such a pass would, without timing it.
    ``model`` has no shared L3, so the run touches only the
    application's own hierarchy and its result is a function of the
    memo key: a hit is exact.
    """
    key = (model.core, model.memory, profile, instructions, seed)
    cycles = _reference_memo.get(key)
    if cycles is None:
        trace = app.trace
        memory = (trace.classes == InstructionClass.LOAD) | (
            trace.classes == InstructionClass.STORE
        )
        model.hierarchy_for(app).access_data_batch(trace.addresses[memory])
        cycles = run_isolated(model, app).cycles
        if len(_reference_memo) >= REFERENCE_MEMO_CAP:
            _reference_memo.clear()
        _reference_memo[key] = cycles
    return cycles


def run_trace_workload(
    machine: MachineConfig,
    mix: WorkloadMix | Sequence[str],
    scheduler_name: str,
    *,
    instructions: int = 200_000,
    seed: int = 0,
    counter_mode: AceCounterMode = AceCounterMode.FULL,
    record_timeline: bool = False,
) -> RunResult:
    """Run one workload mix with the trace-driven pipeline models.

    The scheduler quantum is scaled so a run covers a few dozen quanta
    at trace scale (the paper's 1 ms quantum assumes 10^9-instruction
    applications); the sampling-quantum-to-quantum ratio and the
    staleness period are preserved.
    """
    names = mix.benchmarks if isinstance(mix, WorkloadMix) else tuple(mix)
    with span("trace.generate", apps=len(names)):
        apps = trace_applications(names, instructions, seed=seed)
    # Scale the quantum to ~1/50th of a typical application runtime.
    cycles_estimate = instructions  # IPC ~ 1 on the big core
    quantum_seconds = max(
        cycles_estimate / 50 / machine.big.frequency_hz, 1e-7
    )
    scaled = MachineConfig(
        big_cores=machine.big_cores,
        small_cores=machine.small_cores,
        big=machine.big,
        small=machine.small,
        memory=machine.memory,
        quantum_seconds=quantum_seconds,
        sampling_quantum_seconds=quantum_seconds / 10,
        sampling_period_quanta=machine.sampling_period_quanta,
        migration_overhead_seconds=min(
            machine.migration_overhead_seconds, quantum_seconds / 50
        ),
    )
    scheduler = make_scheduler(scheduler_name, scaled, len(apps), seed)
    # Reference times come from a *separate* isolated model so the
    # measurement neither warms nor pollutes the shared-L3 models.
    reference_model = OutOfOrderCoreModel(scaled.big, scaled.memory)
    references = []
    with span("trace.reference_runs"):
        for i, (name, app) in enumerate(zip(names, apps)):
            cycles = _reference_cycles(
                reference_model, app, benchmark(name), instructions, seed + i
            )
            references.append(
                ReferenceTimes.uniform(app, cycles / scaled.big.frequency_hz)
            )
    simulation = MulticoreSimulation(
        scaled,
        apps,
        scheduler,
        models=trace_driven_models(scaled),
        counter_mode=counter_mode,
        record_timeline=record_timeline,
        reference_times=references,
    )
    result = simulation.run()
    result.scheduler_name = scheduler_name
    return result
