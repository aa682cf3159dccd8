"""Quantum-driven heterogeneous multicore simulation engine.

Ties every substrate together: the scheduler plans each 1 ms quantum
(possibly split into a sampling segment and a main segment), the
segment step (:mod:`repro.sim.segment`) executes each application's
slice under the shared-resource environment derived from the previous
segment's measured demand and produces the observations the scheduler
sees, and ground-truth reliability/performance bookkeeping accumulates
into a :class:`~repro.sim.results.RunResult`.

Following the paper's methodology (Section 5): applications migrate
with a 20 us state-transfer penalty; the experiment ends when the
longest-running application finishes its full instruction budget, and
faster applications restart and are accounted across repetitions.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.ace.counters import AceCounterMode
from repro.config.machines import BIG, MachineConfig
from repro.cores.base import CoreModel
from repro.cores.mechanistic import MechanisticCoreModel
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import span
from repro.sched.base import PARKED, Scheduler
from repro.sim.isolated import ReferenceTimes, run_isolated
from repro.sim.results import AppRunRecord, RunResult, TimelinePoint
from repro.sim.segment import NO_DEMAND, SegmentStep, mechanistic_model
from repro.workloads.characteristics import BenchmarkProfile

#: Hard cap on simulated quanta (a guard against non-terminating runs).
DEFAULT_MAX_QUANTA = 5_000_000


def default_models(machine: MachineConfig) -> dict[str, CoreModel]:
    """Mechanistic big/small core models for a machine (shared per
    process, see :func:`repro.sim.segment.mechanistic_model`)."""
    return {
        "big": mechanistic_model(machine.big, machine.memory),
        "small": mechanistic_model(machine.small, machine.memory),
    }


def _reference_times(
    profile: BenchmarkProfile, big_model: CoreModel
) -> ReferenceTimes:
    if isinstance(big_model, MechanisticCoreModel):
        return ReferenceTimes.from_models(profile, big_model)
    # Generic core model (e.g. trace-driven): measure the isolated run
    # once and assume a uniform rate.
    run = run_isolated(big_model, profile)
    seconds = run.cycles / big_model.core.frequency_hz
    return ReferenceTimes.uniform(profile, seconds)


class MulticoreSimulation:
    """One multiprogram workload on one machine under one scheduler."""

    def __init__(
        self,
        machine: MachineConfig,
        profiles: Sequence[BenchmarkProfile],
        scheduler: Scheduler,
        *,
        models: dict[str, CoreModel] | None = None,
        counter_mode: AceCounterMode = AceCounterMode.FULL,
        record_timeline: bool = False,
        reference_times: Sequence[ReferenceTimes] | None = None,
        max_quanta: int = DEFAULT_MAX_QUANTA,
        restart_finished: bool = True,
    ):
        """Set up one run.

        Args:
            restart_finished: the paper's methodology (default):
                applications that finish restart until the longest one
                completes, and metrics cover all repetitions.  With
                ``False`` (run-to-completion mode), a finished
                application's core idles and per-application time
                stops accumulating at its completion -- the accounting
                used for turnaround-time studies.
        """
        if len(profiles) < machine.num_cores and getattr(
            scheduler, "requires_full_occupancy", True
        ):
            raise ValueError(
                f"{machine.name} needs at least {machine.num_cores} "
                f"applications; got {len(profiles)}"
            )
        if len(profiles) != getattr(scheduler, "num_apps", len(profiles)):
            raise ValueError(
                "scheduler was built for a different application count"
            )
        self.machine = machine
        self.profiles = list(profiles)
        self.scheduler = scheduler
        self.models = models if models is not None else default_models(machine)
        self.counter_mode = counter_mode
        self.record_timeline = record_timeline
        self.max_quanta = max_quanta
        self.restart_finished = restart_finished
        if reference_times is None:
            big_model = self.models[BIG]
            reference_times = [
                _reference_times(p, big_model) for p in self.profiles
            ]
        self.reference_times = list(reference_times)

    def run(self) -> RunResult:
        with span(
            "sim.run",
            machine=self.machine.name,
            scheduler=type(self.scheduler).__name__,
        ):
            result = self._run()
        reg = obs_metrics.ACTIVE
        if reg is not None:
            self._record_metrics(reg, result)
        return result

    def _record_metrics(self, reg, result: RunResult) -> None:
        reg.counter("sim.runs").inc()
        reg.counter("sim.quanta").inc(result.quanta)
        reg.gauge("sim.apps").set(len(result.apps))
        for rec in result.apps:
            reg.counter("sim.instructions", core="big").inc(
                rec.instructions_big
            )
            reg.counter("sim.instructions", core="small").inc(
                rec.instructions_small
            )
            reg.counter("sched.migrations").inc(rec.migrations)

    def _run(self) -> RunResult:
        profiles = self.profiles
        n = len(profiles)
        records = [AppRunRecord(name=p.name) for p in profiles]
        positions = [0] * n
        completion_time: list[float | None] = [None] * n
        last_core: list[int | None] = [None] * n
        demands: Sequence[tuple[float, float]] = [NO_DEMAND] * n
        timeline: list[TimelinePoint] = []
        now = 0.0
        quantum = 0
        # A scheduler that keeps the base class's no-op ``observe``
        # reads no counters, so the step builds no observations for it.
        # Looked up on the class at run time, as the step tests models.
        observes = type(self.scheduler).observe is not Scheduler.observe
        step = SegmentStep(
            self.machine, self.models, self.counter_mode,
            clip=not self.restart_finished, observe=observes,
        )

        def finished() -> bool:
            return all(
                positions[i] >= profiles[i].instructions for i in range(n)
            )

        while not finished():
            if quantum >= self.max_quanta:
                raise RuntimeError(
                    f"simulation exceeded {self.max_quanta} quanta"
                )
            with span("sched.plan_quantum"):
                plans = self.scheduler.plan_quantum(quantum)
            total_fraction = sum(p.fraction for p in plans)
            if not math.isclose(total_fraction, 1.0, abs_tol=1e-9):
                raise ValueError(
                    f"quantum segments cover {total_fraction}, expected 1.0"
                )
            quantum_abc = [0.0] * n
            quantum_instr = [0] * n
            final_types = [""] * n
            for plan in plans:
                plan.assignment.validate(self.machine)
                duration = plan.fraction * self.machine.quantum_seconds
                core_of = plan.assignment.core_of
                apps: Sequence = profiles
                if not self.restart_finished:
                    # Run-to-completion mode: a finished application's
                    # core idles.
                    apps = [
                        p if positions[i] < p.instructions else None
                        for i, p in enumerate(profiles)
                    ]
                deltas, observations, demands = step.run(
                    core_of, duration, demands, apps, positions, last_core
                )
                for i, delta in enumerate(deltas):
                    if delta is None:
                        # Parked (oversubscription: the application
                        # keeps accumulating wall-clock time but no
                        # execution), or its core idles.
                        core = core_of[i]
                        if core == PARKED:
                            final_types[i] = "parked"
                        else:
                            final_types[i] = self.machine.core_type(core)
                            last_core[i] = core
                        continue
                    (core, core_type, migrated, _, instructions, _,
                     abc_seconds, occupancy_seconds, l3, dram) = delta
                    final_types[i] = core_type
                    rec = records[i]
                    rec.instructions += instructions
                    rec.abc_seconds += abc_seconds
                    rec.occupancy_bit_seconds += occupancy_seconds
                    rec.dram_accesses += dram
                    rec.l3_accesses += l3
                    if core_type == BIG:
                        rec.time_big_seconds += duration
                        rec.instructions_big += instructions
                    else:
                        rec.time_small_seconds += duration
                        rec.instructions_small += instructions
                    if migrated:
                        rec.migrations += 1
                    positions[i] += instructions
                    if (
                        completion_time[i] is None
                        and positions[i] >= profiles[i].instructions
                    ):
                        completion_time[i] = now + duration
                    quantum_abc[i] += abc_seconds
                    quantum_instr[i] += instructions
                    last_core[i] = core
                if observes:
                    self.scheduler.observe(plan, observations)
                now += duration
            if self.record_timeline:
                for i in range(n):
                    timeline.append(
                        TimelinePoint(
                            time_seconds=now,
                            app_name=profiles[i].name,
                            core_type=final_types[i],
                            abc_per_second=quantum_abc[i]
                            / self.machine.quantum_seconds,
                            instructions=quantum_instr[i],
                        )
                    )
            reg = obs_metrics.ACTIVE
            if reg is not None:
                reg.histogram("sim.quantum_instructions").observe(
                    float(sum(quantum_instr))
                )
            quantum += 1

        for i in range(n):
            rec = records[i]
            if not self.restart_finished and completion_time[i] is not None:
                rec.time_seconds = completion_time[i]
            else:
                rec.time_seconds = now
            rec.reference_time_seconds = self.reference_times[i].seconds_for(
                positions[i]
            )
            rec.completed_runs = positions[i] // self.profiles[i].instructions
        return RunResult(
            machine_name=self.machine.name,
            scheduler_name=type(self.scheduler).__name__,
            quanta=quantum,
            duration_seconds=now,
            apps=records,
            timeline=timeline,
        )
