"""Experiment harness shared by the benchmarks and examples.

Convenience functions for running the paper's evaluations: build
scheduler instances by name, run a workload mix on a machine, and
sweep workload lists under several schedulers.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.ace.counters import AceCounterMode
from repro.config.machines import MachineConfig
from repro.cores.base import CoreModel
from repro.sched.base import Scheduler
from repro.sched.performance import PerformanceScheduler
from repro.sched.random_sched import RandomScheduler
from repro.sched.reliability import ReliabilityScheduler
from repro.sim.multicore import MulticoreSimulation
from repro.sim.results import RunResult
from repro.workloads.mixes import WorkloadMix
from repro.workloads.spec2006 import benchmark

#: The three dynamic schedulers evaluated throughout Section 6.
SCHEDULER_NAMES = ("random", "performance", "reliability")


def make_scheduler(
    name: str, machine: MachineConfig, num_apps: int, seed: int = 0
) -> Scheduler:
    """Instantiate a scheduler by its evaluation name."""
    if name == "random":
        return RandomScheduler(machine, num_apps, seed=seed)
    if name == "performance":
        return PerformanceScheduler(machine, num_apps)
    if name == "reliability":
        return ReliabilityScheduler(machine, num_apps)
    if name == "modes":
        # Imported here: repro.sched.modes pulls in repro.ace, which
        # imports back into repro.sched at package-init time.
        from repro.sched.modes import ModeAwareReliabilityScheduler

        return ModeAwareReliabilityScheduler(machine, num_apps)
    raise ValueError(
        f"unknown scheduler {name!r}; known: {SCHEDULER_NAMES + ('modes',)}"
    )


def run_workload(
    machine: MachineConfig,
    mix: WorkloadMix | Sequence[str],
    scheduler_name: str,
    *,
    instructions: int | None = None,
    seed: int = 0,
    counter_mode: AceCounterMode = AceCounterMode.FULL,
    models: dict[str, CoreModel] | None = None,
    record_timeline: bool = False,
) -> RunResult:
    """Run one workload mix under one scheduler.

    Args:
        machine: HCMP configuration.
        mix: a :class:`WorkloadMix` or a plain list of benchmark names.
        scheduler_name: ``"random"``, ``"performance"`` or
            ``"reliability"``.
        instructions: optional per-benchmark instruction override
            (scales runs down for quick experiments and tests).
        seed: seed for the random scheduler.
        counter_mode: ACE counter architecture the scheduler reads.
        models: core-model override (defaults to mechanistic models).
        record_timeline: record per-quantum ABC samples (Figure 4).
    """
    names = mix.benchmarks if isinstance(mix, WorkloadMix) else tuple(mix)
    profiles = [benchmark(name) for name in names]
    if instructions is not None:
        profiles = [p.scaled(instructions) for p in profiles]
    scheduler = make_scheduler(scheduler_name, machine, len(profiles), seed)
    simulation = MulticoreSimulation(
        machine,
        profiles,
        scheduler,
        models=models,
        counter_mode=counter_mode,
        record_timeline=record_timeline,
    )
    result = simulation.run()
    result.scheduler_name = scheduler_name
    return result


def sweep_specs(
    machine: MachineConfig,
    workloads: Iterable[WorkloadMix],
    scheduler_names: Sequence[str] = SCHEDULER_NAMES,
    *,
    instructions: int | None = None,
    counter_mode: AceCounterMode = AceCounterMode.FULL,
) -> tuple[list, list[str]]:
    """The sweep's campaign plan: ``(specs, labels)`` in run order.

    This is the single definition of how a sweep turns into
    :class:`~repro.sim.campaign.RunSpec`s, shared by the serial/
    parallel engine path (:func:`sweep`) and the shard coordinator
    (``repro shard``), so every execution mode runs the byte-identical
    campaign.
    """
    from repro.sim.campaign import RunSpec

    specs: list[RunSpec] = []
    labels: list[str] = []
    for index, mix in enumerate(workloads):
        names = mix.benchmarks if isinstance(mix, WorkloadMix) else tuple(mix)
        category = mix.category if isinstance(mix, WorkloadMix) else "mix"
        for name in scheduler_names:
            specs.append(
                RunSpec(
                    machine=machine.name,
                    benchmarks=names,
                    scheduler=name,
                    instructions=instructions,
                    seed=index,
                    counter_mode=counter_mode.value,
                )
            )
            labels.append(f"{category}/{index} {name}")
    return specs, labels


def sweep(
    machine: MachineConfig,
    workloads: Iterable[WorkloadMix],
    scheduler_names: Sequence[str] = SCHEDULER_NAMES,
    *,
    instructions: int | None = None,
    counter_mode: AceCounterMode = AceCounterMode.FULL,
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    sinks: Sequence = (),
    checks=None,
    metrics: bool = False,
    store=None,
) -> dict[str, list[RunResult]]:
    """Run a workload list under several schedulers.

    Execution goes through the :mod:`repro.runtime` engine: ``jobs``
    sets the worker-process count (1 = in-process serial), ``sinks``
    receive the structured progress-event stream, ``checks`` is the
    engine's opt-in per-result invariant hook (see
    :func:`repro.check.default_run_checks`), and ``progress`` is
    a legacy per-run text callback kept for compatibility.  With
    ``metrics``, every job collects a :mod:`repro.obs.metrics`
    registry whose snapshot is emitted as a
    :class:`~repro.runtime.events.MetricsSnapshot` event (aggregate
    with ``repro stats``).  ``store`` (a directory path or
    :class:`~repro.runtime.store.ResultStore`) makes the sweep durable:
    completed results persist as atomically-written per-spec files, are
    reused as cache hits on re-run, and -- together with a
    :class:`~repro.runtime.events.JsonlEventSink` log -- allow an
    interrupted sweep to be finished with ``repro resume``.  Results
    are deterministic: the same specs in the same order regardless of
    ``jobs``.

    Returns ``{scheduler_name: [RunResult per workload, in order]}``.
    """
    from repro.runtime.engine import ExecutionEngine
    from repro.runtime.events import CallbackSink, JobFinished

    specs, labels = sweep_specs(
        machine,
        workloads,
        scheduler_names,
        instructions=instructions,
        counter_mode=counter_mode,
    )

    sinks = list(sinks)
    if progress is not None:
        callback = progress  # bind for the closure below

        def _legacy_line(event) -> None:
            if isinstance(event, JobFinished) and event.sser is not None:
                callback(f"{event.label}: sser={event.sser:.3e}")

        sinks.append(CallbackSink(_legacy_line))

    engine = ExecutionEngine(
        jobs=jobs, sinks=sinks, checks=checks, metrics=metrics
    )
    report = engine.run_many(
        specs, machines=machine, labels=labels, store=store
    )
    results: dict[str, list[RunResult]] = {name: [] for name in scheduler_names}
    for spec, result in zip(specs, report.results):
        results[spec.scheduler].append(result)
    return results


def geomean_ratio(
    numerators: Sequence[float], denominators: Sequence[float]
) -> float:
    """Geometric mean of pairwise ratios (used for normalized metrics)."""
    if len(numerators) != len(denominators) or not numerators:
        raise ValueError("need equal-length, non-empty sequences")
    product = 1.0
    for num, den in zip(numerators, denominators):
        if num <= 0 or den <= 0:
            raise ValueError("ratios need positive values")
        product *= num / den
    return product ** (1.0 / len(numerators))


def average_ratio(
    numerators: Sequence[float], denominators: Sequence[float]
) -> float:
    """Arithmetic mean of pairwise ratios."""
    if len(numerators) != len(denominators) or not numerators:
        raise ValueError("need equal-length, non-empty sequences")
    return sum(n / d for n, d in zip(numerators, denominators)) / len(numerators)
