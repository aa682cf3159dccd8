"""Quantum-driven heterogeneous multicore simulation engine.

Ties every substrate together: the scheduler plans each 1 ms quantum
(possibly split into a sampling segment and a main segment), the core
models execute each application's slice under the shared-resource
environment derived from the previous segment's measured demand, the
ACE counter architecture produces the observations the scheduler sees,
and ground-truth reliability/performance bookkeeping accumulates into
a :class:`~repro.sim.results.RunResult`.

Following the paper's methodology (Section 5): applications migrate
with a 20 us state-transfer penalty; the experiment ends when the
longest-running application finishes its full instruction budget, and
faster applications restart and are accounted across repetitions.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.ace.counters import AceCounterMode, measured_abc
from repro.config.machines import BIG, MachineConfig
from repro.cores.base import CoreModel
from repro.cores.mechanistic import MechanisticCoreModel
from repro.memory.interference import ApplicationDemand, InterferenceModel
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import span
from repro.sched.base import PARKED, Observation, Scheduler
from repro.sim.isolated import ReferenceTimes, run_isolated
from repro.sim.results import AppRunRecord, RunResult, TimelinePoint
from repro.workloads.characteristics import BenchmarkProfile

#: Hard cap on simulated quanta (a guard against non-terminating runs).
DEFAULT_MAX_QUANTA = 5_000_000


def default_models(machine: MachineConfig) -> dict[str, CoreModel]:
    """Mechanistic big/small core models for a machine."""
    return {
        "big": MechanisticCoreModel(machine.big, machine.memory),
        "small": MechanisticCoreModel(machine.small, machine.memory),
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
        self.interference = InterferenceModel(machine.memory)
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
        n = len(self.profiles)
        records = [AppRunRecord(name=p.name) for p in self.profiles]
        positions = [0] * n
        completion_time: list[float | None] = [None] * n
        last_core: list[int | None] = [None] * n
        demands = [ApplicationDemand(0.0, 0.0)] * n
        timeline: list[TimelinePoint] = []
        now = 0.0
        quantum = 0
        # Per core id: (type, model, frequency in Hz, out-of-order).
        cores = []
        for core in range(self.machine.num_cores):
            core_type = self.machine.core_type(core)
            config = self.machine.core_config(core)
            cores.append((
                core_type, self.models[core_type],
                config.frequency_hz, config.out_of_order,
            ))

        def finished() -> bool:
            return all(
                positions[i] >= self.profiles[i].instructions for i in range(n)
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
                envs = self.interference.environments(demands)
                observations = []
                new_demands = list(demands)
                for i in range(n):
                    core = plan.assignment.core_of[i]
                    if core == PARKED:
                        # Oversubscription: the application waits this
                        # segment.  It keeps accumulating wall-clock
                        # (turnaround) time but no execution.
                        observations.append(
                            Observation(i, core, "parked", 0.0, 0, 0.0)
                        )
                        new_demands[i] = ApplicationDemand(0.0, 0.0)
                        final_types[i] = "parked"
                        continue
                    core_type, model, freq, out_of_order = cores[core]
                    remaining = self.profiles[i].instructions - positions[i]
                    if not self.restart_finished and remaining <= 0:
                        # Run-to-completion mode: the core idles.
                        observations.append(
                            Observation(i, core, core_type, 0.0, 0, 0.0)
                        )
                        new_demands[i] = ApplicationDemand(0.0, 0.0)
                        final_types[i] = core_type
                        last_core[i] = core
                        continue
                    migrated = last_core[i] is not None and last_core[i] != core
                    overhead = (
                        min(self.machine.migration_overhead_seconds, duration)
                        if migrated
                        else 0.0
                    )
                    exec_cycles = (duration - overhead) * freq
                    with span("sim.exec", core=core_type):
                        result = model.run_cycles(
                            self.profiles[i], positions[i], exec_cycles, envs[i]
                        )
                    if (
                        not self.restart_finished
                        and result.instructions > remaining
                    ):
                        # Clip the slice at the application's end; the
                        # rest of the quantum idles.
                        result = result.clipped(remaining)
                    abc_seconds = result.total_ace_bit_cycles / freq
                    rec = records[i]
                    rec.instructions += result.instructions
                    rec.abc_seconds += abc_seconds
                    rec.occupancy_bit_seconds += (
                        sum(result.occupancy_bit_cycles.values()) / freq
                    )
                    rec.dram_accesses += result.memory_accesses
                    rec.l3_accesses += result.l3_accesses
                    if core_type == BIG:
                        rec.time_big_seconds += duration
                        rec.instructions_big += result.instructions
                    else:
                        rec.time_small_seconds += duration
                        rec.instructions_small += result.instructions
                    if migrated:
                        rec.migrations += 1
                    positions[i] += result.instructions
                    if (
                        completion_time[i] is None
                        and positions[i] >= self.profiles[i].instructions
                    ):
                        completion_time[i] = now + duration
                    new_demands[i] = ApplicationDemand(
                        l3_accesses_per_second=result.l3_accesses / duration,
                        dram_accesses_per_second=result.memory_accesses
                        / duration,
                    )
                    # The scheduler's counters measure rates over the
                    # time the application actually executed; the
                    # migration dead time is invisible to them (it
                    # still costs wall-clock time in the ground-truth
                    # accounting above).
                    observations.append(
                        Observation(
                            app_index=i,
                            core_id=core,
                            core_type=core_type,
                            duration_seconds=duration - overhead,
                            instructions=result.instructions,
                            measured_abc_seconds=measured_abc(
                                result, self.counter_mode, out_of_order
                            )
                            / freq,
                            l3_accesses=result.l3_accesses,
                            dram_accesses=result.memory_accesses,
                            branch_mispredictions=result.branch_mispredictions,
                        )
                    )
                    quantum_abc[i] += abc_seconds
                    quantum_instr[i] += result.instructions
                    final_types[i] = core_type
                    last_core[i] = core
                demands = new_demands
                self.scheduler.observe(plan, observations)
                now += duration
            if self.record_timeline:
                for i in range(n):
                    timeline.append(
                        TimelinePoint(
                            time_seconds=now,
                            app_name=self.profiles[i].name,
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
