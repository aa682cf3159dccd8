"""The open-system virtual-time loop and its asyncio front-end.

:class:`OpenSystem` owns the quantum loop: at each 1 ms boundary it
retires completed jobs, drains due arrivals into the bounded admission
queue (shedding on overflow), expires SLA deadlines, admits waiting
jobs to free slots, asks the :class:`~repro.service.placement.SlotPlacer`
for this quantum's placement/migrations, and executes every occupied
slot's slice in-process through the segment step the multicore loop
uses.

Everything runs in **virtual time**, so the event feed is a pure
function of the configuration and the arrival stream: a load point
gives the same feed in any process, which is what lets ``repro load
--jobs N`` run whole points on workers (pinned by ``repro check
--service-cases``).

:class:`SchedulerService` wraps an interactive :class:`OpenSystem` in
a line-oriented JSON request/response protocol (``repro serve``):
submit jobs, step virtual time, query placement -- over stdin/stdout
or a local unix socket.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.ace.counters import AceCounterMode
from repro.config.machines import BIG, SMALL, MachineConfig
from repro.metrics.reliability import weighted_ser
from repro.obs import metrics as obs_metrics
from repro.sched.base import Observation
from repro.sched.sampling import (
    DEFAULT_SWAP_THRESHOLD,
    CoreTypeSample,
    observed_sample,
    quantum_streak,
)
from repro.service.admission import make_admission
from repro.service.arrivals import JobArrival
from repro.service.events import ServiceFeed
from repro.service.framing import FramingError, decode_line, encode_line
from repro.service.placement import SlotPlacer
from repro.service.queue import AdmissionQueue
from repro.sim.isolated import ReferenceTimes
from repro.sim.segment import (
    NO_DEMAND,
    SegmentStep,
    SliceDelta,
    mechanistic_model,
)
from repro.workloads.characteristics import BenchmarkProfile
from repro.workloads.spec2006 import benchmark

__all__ = [
    "OpenSystem",
    "SchedulerService",
    "ServiceConfig",
    "ServiceJob",
    "ServiceResult",
]

#: Hard cap on service quanta (guards non-terminating runs).
DEFAULT_MAX_QUANTA = 2_000_000

#: Reference times an open system caches, per (benchmark,
#: instructions), before the cache is emptied; it bounds the memory
#: of a long ``repro serve`` session.
REFERENCE_CACHE_CAP = 256


@dataclass(frozen=True)
class ServiceConfig:
    """Static configuration of one open-system service instance."""

    machine: MachineConfig
    scheduler: str = "reliability"
    admission: str = "fifo"
    queue_capacity: int = 16
    #: Service-wide start-deadline for jobs without a per-job SLA.
    deadline_seconds: float | None = None
    counter_mode: AceCounterMode = AceCounterMode.FULL
    swap_threshold: float = DEFAULT_SWAP_THRESHOLD
    max_quanta: int = DEFAULT_MAX_QUANTA


@dataclass
class ServiceJob:
    """Lifecycle state of one job inside the open system."""

    arrival: JobArrival
    status: str = "queued"  # queued | running | completed | shed
    shed_reason: str = ""
    slot: int | None = None
    admit_time: float | None = None
    depart_time: float | None = None
    position: int = 0
    abc_seconds: float = 0.0
    migrations: int = 0
    #: Real measured samples per core type (no mirroring here).
    samples: dict[str, CoreTypeSample] = field(default_factory=dict)
    consecutive: int = 0
    last_type: str | None = None
    last_core: int | None = None
    #: (L3 accesses per second, DRAM accesses per second) measured in
    #: the job's last segment.
    demand: tuple[float, float] = NO_DEMAND
    wser: float | None = None
    slowdown: float | None = None
    #: The scaled profile, resolved at admission, dropped at departure.
    profile: BenchmarkProfile | None = None

    @property
    def job_id(self) -> int:
        return self.arrival.job_id

    @property
    def benchmark(self) -> str:
        return self.arrival.benchmark

    @property
    def instructions(self) -> int:
        return self.arrival.instructions

    @property
    def done(self) -> bool:
        return self.position >= self.instructions

    def wait_seconds(self) -> float | None:
        if self.admit_time is None:
            return None
        return self.admit_time - self.arrival.time_seconds

    def summary(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "benchmark": self.benchmark,
            "status": self.status,
            "shed_reason": self.shed_reason,
            "arrival_time": self.arrival.time_seconds,
            "admit_time": self.admit_time,
            "depart_time": self.depart_time,
            "wait_seconds": self.wait_seconds(),
            "position": self.position,
            "instructions": self.instructions,
            "migrations": self.migrations,
            "wser": self.wser,
            "slowdown": self.slowdown,
        }


@dataclass(frozen=True)
class ServiceResult:
    """Aggregate outcome of an open-system run.

    The conservation laws pinned by ``repro.check``:
    ``arrived == admitted + shed`` and
    ``admitted == completed + in_flight``.
    """

    machine_name: str
    scheduler: str
    admission: str
    arrived: int
    admitted: int
    shed: int
    shed_reasons: dict[str, int]
    completed: int
    in_flight: int
    quanta: int
    duration_seconds: float
    #: Queueing delay of each admitted job, in admission order.
    waits: tuple[float, ...]
    #: Sum of completed jobs' weighted SER (Equation 2).
    sser: float
    mean_slowdown: float | None
    jobs: tuple[dict[str, Any], ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "machine": self.machine_name,
            "scheduler": self.scheduler,
            "admission": self.admission,
            "arrived": self.arrived,
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_reasons": dict(self.shed_reasons),
            "completed": self.completed,
            "in_flight": self.in_flight,
            "quanta": self.quanta,
            "duration_seconds": self.duration_seconds,
            "sser": self.sser,
            "mean_slowdown": self.mean_slowdown,
        }


class OpenSystem:
    """Jobs arrive, wait, run, migrate, and depart over virtual time.

    Args:
        config: the static service configuration.
        feed: optional :class:`~repro.service.events.ServiceFeed`
            receiving every boundary event.
        recorder: optional
            :class:`~repro.obs.decisions.DecisionTraceRecorder`; the
            trace chain-validates across admissions and departures.

    Every slice runs in this process, through the segment step.
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        feed: ServiceFeed | None = None,
        recorder=None,
    ):
        self.config = config
        machine = config.machine
        self.machine = machine
        self.feed = feed if feed is not None else ServiceFeed()
        self.placer = SlotPlacer(
            machine,
            config.scheduler,
            swap_threshold=config.swap_threshold,
        )
        self.placer.recorder = recorder
        self.admission = make_admission(config.admission)
        self.queue = AdmissionQueue(
            config.queue_capacity, deadline_seconds=config.deadline_seconds
        )
        self._step = SegmentStep(
            machine,
            {
                BIG: mechanistic_model(machine.big, machine.memory),
                SMALL: mechanistic_model(machine.small, machine.memory),
            },
            config.counter_mode,
            clip=True,
        )
        self.slots: list[ServiceJob | None] = [None] * machine.num_cores
        self.jobs: dict[int, ServiceJob] = {}
        self.pending: list[JobArrival] = []
        self._next_pending = 0
        self._next_job_id = 0
        self.quantum = 0
        self.arrived = 0
        self.admitted = 0
        self.shed_reasons: dict[str, int] = {}
        self.completed = 0
        self.waits: list[float] = []
        self.sser = 0.0
        self._slowdowns: list[float] = []
        self._reference: dict[tuple[str, int], ReferenceTimes] = {}

    # -- time & intake ---------------------------------------------------

    @property
    def now(self) -> float:
        """Virtual time of the current quantum boundary."""
        return self.quantum * self.machine.quantum_seconds

    @property
    def shed(self) -> int:
        return sum(self.shed_reasons.values())

    @property
    def in_flight(self) -> int:
        """Admitted jobs not yet completed (running slots)."""
        return sum(1 for job in self.slots if job is not None)

    def enqueue_arrivals(self, arrivals: Sequence[JobArrival]) -> None:
        """Feed a pre-built arrival stream (``repro load``)."""
        for arrival in arrivals:
            if self.pending and arrival.time_seconds < self.pending[-1].time_seconds:
                raise ValueError("arrivals must be time-ordered")
            self.pending.append(arrival)
            self._next_job_id = max(self._next_job_id, arrival.job_id + 1)

    def submit(
        self,
        benchmark_name: str,
        instructions: int,
        deadline_seconds: float | None = None,
    ) -> int:
        """Interactive submission at the current virtual time."""
        benchmark(benchmark_name)  # validate the name eagerly
        arrival = JobArrival(
            job_id=self._next_job_id,
            time_seconds=self.now,
            benchmark=benchmark_name,
            instructions=instructions,
            deadline_seconds=deadline_seconds,
        )
        self._next_job_id += 1
        self.pending.append(arrival)
        return arrival.job_id

    # -- metrics ---------------------------------------------------------

    def _observe_queue_metrics(self, wait: float | None) -> None:
        reg = obs_metrics.ACTIVE
        if reg is None:
            return
        if wait is not None:
            reg.histogram("queue.wait_seconds").observe(wait)
        reg.gauge("queue.depth").set(float(len(self.queue)))

    def _count(self, counter: str, **labels) -> None:
        reg = obs_metrics.ACTIVE
        if reg is not None:
            reg.counter(counter, **labels).inc()

    # -- boundary processing ---------------------------------------------

    def _record_boundary(self, phase: str) -> None:
        recorder = self.placer.recorder
        if recorder is None:
            return
        core_of = self.placer.assignment.core_of
        recorder.quantum(
            quantum=self.quantum,
            scheduler=type(self.placer.scheduler).__name__,
            phase=phase,
            before=core_of,
            after=core_of,
        )

    def _retire_completed(self) -> None:
        departed = False
        for slot, job in enumerate(self.slots):
            if job is None or not job.done:
                continue
            reference = self._reference_times(job)
            job.profile = None
            ref_seconds = reference.seconds_for(job.position)
            job.wser = weighted_ser(job.abc_seconds, ref_seconds)
            if job.admit_time is not None and ref_seconds > 0:
                job.slowdown = (
                    (job.depart_time or self.now) - job.admit_time
                ) / ref_seconds
                self._slowdowns.append(job.slowdown)
            job.status = "completed"
            job.slot = None
            self.slots[slot] = None
            self.completed += 1
            self.sser += job.wser
            self._count("service.completed")
            reg = obs_metrics.ACTIVE
            if reg is not None:
                reg.gauge("service.sser").set(self.sser)
            self.feed.emit(
                "depart",
                job.depart_time if job.depart_time is not None else self.now,
                job_id=job.job_id,
                benchmark=job.benchmark,
                slot=slot,
                wser=job.wser,
                slowdown=job.slowdown,
            )
            departed = True
        if departed:
            self._record_boundary("depart")

    def _reference_times(self, job: ServiceJob) -> ReferenceTimes:
        key = (job.benchmark, job.instructions)
        reference = self._reference.get(key)
        if reference is None:
            reference = ReferenceTimes.from_models(
                job.profile,
                mechanistic_model(self.machine.big, self.machine.memory),
            )
            if len(self._reference) >= REFERENCE_CACHE_CAP:
                self._reference.clear()
            self._reference[key] = reference
        return reference

    def _shed_job(self, job: ServiceJob, reason: str, time: float) -> None:
        job.status = "shed"
        job.shed_reason = reason
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1
        self._count("service.shed", reason=reason)
        self.feed.emit(
            "shed",
            time,
            job_id=job.job_id,
            benchmark=job.benchmark,
            reason=reason,
            waited_seconds=time - job.arrival.time_seconds,
        )

    def _drain_arrivals(self) -> bool:
        any_shed = False
        now = self.now
        while (
            self._next_pending < len(self.pending)
            and self.pending[self._next_pending].time_seconds <= now
        ):
            arrival = self.pending[self._next_pending]
            self._next_pending += 1
            job = ServiceJob(arrival=arrival)
            self.jobs[arrival.job_id] = job
            self.arrived += 1
            self._count("service.arrivals")
            self.feed.emit(
                "arrive",
                arrival.time_seconds,
                job_id=arrival.job_id,
                benchmark=arrival.benchmark,
                instructions=arrival.instructions,
            )
            if self.queue.offer(arrival) is None:
                self._shed_job(job, "queue_full", now)
                any_shed = True
        return any_shed

    def _expire_deadlines(self) -> bool:
        expired = self.queue.expire(self.now)
        for queued in expired:
            self._shed_job(self.jobs[queued.job_id], "deadline", self.now)
        return bool(expired)

    def _admit(self) -> bool:
        admitted = False
        now = self.now
        for slot in self.placer.free_slots_by_preference(self.slots):
            if not len(self.queue):
                break
            queued = self.admission.select(self.queue.jobs, now)
            self.queue.take(queued)
            job = self.jobs[queued.job_id]
            job.status = "running"
            job.slot = slot
            job.admit_time = now
            job.profile = benchmark(job.benchmark).scaled(job.instructions)
            self.slots[slot] = job
            self.admitted += 1
            wait = now - queued.arrival.time_seconds
            self.waits.append(wait)
            self._count("service.admitted")
            self._observe_queue_metrics(wait)
            self.feed.emit(
                "start",
                now,
                job_id=job.job_id,
                benchmark=job.benchmark,
                slot=slot,
                core=self.placer.core_of(slot),
                wait_seconds=wait,
            )
            admitted = True
        return admitted

    # -- quantum execution -----------------------------------------------

    def _execute_quantum(self) -> None:
        machine = self.machine
        plans = self.placer.plan(self.slots, self.quantum)
        total_fraction = sum(p.fraction for p in plans)
        if not math.isclose(total_fraction, 1.0, abs_tol=1e-9):
            raise ValueError(
                f"quantum segments cover {total_fraction}, expected 1.0"
            )
        seg_start = self.now
        slots = self.slots
        for plan in plans:
            plan.assignment.validate(machine)
            duration = plan.fraction * machine.quantum_seconds
            # An empty slot's core idles.
            deltas, observations, demands = self._step.run(
                plan.assignment.core_of,
                duration,
                [NO_DEMAND if job is None else job.demand for job in slots],
                [None if job is None else job.profile for job in slots],
                [0 if job is None else job.position for job in slots],
                [None if job is None else job.last_core for job in slots],
            )
            final = plan is plans[-1]
            for slot, job in enumerate(slots):
                if job is not None:
                    self._digest_slice(
                        job, deltas[slot], observations[slot], demands[slot],
                        seg_start, final,
                    )
            seg_start += duration
        # End of quantum: sample ages advance for every running job.
        for job in slots:
            if job is None:
                continue
            for sample in job.samples.values():
                sample.age_quanta += 1
        reg = obs_metrics.ACTIVE
        if reg is not None:
            reg.gauge("service.running").set(float(self.in_flight))

    def _digest_slice(
        self,
        job: ServiceJob,
        delta: SliceDelta,
        observation: Observation,
        demand: tuple[float, float],
        seg_start: float,
        final_segment: bool,
    ) -> None:
        (core, core_type, migrated, overhead, instructions, cycles,
         abc_seconds, _, _, _) = delta
        if migrated:
            job.migrations += 1
            self._count("service.migrations")
            self.feed.emit(
                "migrate",
                seg_start,
                job_id=job.job_id,
                benchmark=job.benchmark,
                slot=job.slot,
                from_core=job.last_core,
                to_core=core,
            )
        job.abc_seconds += abc_seconds
        job.position += instructions
        job.demand = demand
        sample = observed_sample(observation)
        if sample is not None:
            job.samples[core_type] = sample
        job.last_core = core
        if job.done and job.depart_time is None:
            freq = self.machine.core_config(core).frequency_hz
            job.depart_time = seg_start + overhead + cycles / freq
        if final_segment:
            job.consecutive = quantum_streak(
                job.consecutive, job.last_type, core_type,
                job.samples.get(SMALL if core_type == BIG else BIG),
            )
            job.last_type = core_type

    # -- driving ---------------------------------------------------------

    def step(self) -> None:
        """Process one quantum boundary and execute one quantum."""
        if self.quantum >= self.config.max_quanta:
            raise RuntimeError(
                f"service exceeded {self.config.max_quanta} quanta"
            )
        self._retire_completed()
        any_shed = self._drain_arrivals()
        any_shed |= self._expire_deadlines()
        if any_shed:
            self._record_boundary("shed")
        if self._admit():
            self._record_boundary("admit")
        self._observe_queue_metrics(None)
        if self.in_flight:
            self._execute_quantum()
        self.quantum += 1

    def drained(self) -> bool:
        """No pending arrivals, no waiting jobs, no running jobs."""
        return (
            self._next_pending >= len(self.pending)
            and not len(self.queue)
            and self.in_flight == 0
        )

    def run(self) -> ServiceResult:
        """Run until the system drains; returns the aggregate result."""
        while not self.drained():
            self.step()
        # Retire jobs that completed during the final quantum.
        self._retire_completed()
        return self.result()

    def result(self) -> ServiceResult:
        slowdowns = self._slowdowns
        return ServiceResult(
            machine_name=self.machine.name,
            scheduler=self.config.scheduler,
            admission=self.config.admission,
            arrived=self.arrived,
            admitted=self.admitted,
            shed=self.shed,
            shed_reasons=dict(self.shed_reasons),
            completed=self.completed,
            in_flight=self.in_flight,
            quanta=self.quantum,
            duration_seconds=self.now,
            waits=tuple(self.waits),
            sser=self.sser,
            mean_slowdown=(
                sum(slowdowns) / len(slowdowns) if slowdowns else None
            ),
            jobs=tuple(
                self.jobs[jid].summary() for jid in sorted(self.jobs)
            ),
        )


class SchedulerService:
    """Line-oriented JSON protocol around an interactive open system.

    Requests are single JSON objects with an ``op`` field; responses
    always carry ``ok``.  Supported ops (see docs/service.md):

    * ``submit`` -- enqueue a job at the current virtual time.
    * ``step`` -- advance ``quanta`` quantum boundaries (default 1).
    * ``placement`` -- current slot -> core -> job mapping.
    * ``job`` -- lifecycle state of one job by id.
    * ``stats`` -- aggregate counters so far (carries the session's
      trace context alongside the counters).
    * ``trace`` -- the session's :class:`~repro.obs.context.
      TraceContext`, so clients can correlate service sessions with
      campaign logs.
    * ``shutdown`` -- close the session.
    """

    def __init__(
        self, system: OpenSystem, *, default_instructions: int = 1_000_000
    ):
        self.system = system
        self.default_instructions = default_instructions
        self.closed = False
        # Session identity: inherit the ambient trace context when the
        # embedding process installed one (e.g. a campaign driving the
        # service), else mint one from the service configuration.
        from repro.obs import context as obs_context

        context = obs_context.current()
        if context is None:
            config_key = json.dumps(
                dataclasses.asdict(system.config),
                sort_keys=True,
                default=str,
            )
            context = obs_context.TraceContext(
                campaign=obs_context.campaign_id([config_key])
            )
        self.trace = context

    async def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        try:
            return self._dispatch(request)
        except Exception as exc:  # protocol surface: report, don't die
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        system = self.system
        if op == "submit":
            job_id = system.submit(
                request["benchmark"],
                int(request.get("instructions", self.default_instructions)),
                request.get("deadline_seconds"),
            )
            return {"ok": True, "job_id": job_id}
        if op == "step":
            quanta = int(request.get("quanta", 1))
            if quanta < 1:
                return {"ok": False, "error": "quanta must be >= 1"}
            for _ in range(quanta):
                system.step()
            return {
                "ok": True,
                "quantum": system.quantum,
                "time": system.now,
            }
        if op == "placement":
            placement = []
            for slot, job in enumerate(system.slots):
                placement.append(
                    {
                        "slot": slot,
                        "core": system.placer.core_of(slot),
                        "core_type": system.machine.core_type(
                            system.placer.core_of(slot)
                        ),
                        "job_id": job.job_id if job is not None else None,
                        "benchmark": (
                            job.benchmark if job is not None else None
                        ),
                    }
                )
            return {"ok": True, "placement": placement}
        if op == "job":
            job = system.jobs.get(int(request["job_id"]))
            if job is None:
                return {"ok": False, "error": "unknown job id"}
            return {"ok": True, "job": job.summary()}
        if op == "stats":
            return {
                "ok": True,
                "stats": {
                    **system.result().to_dict(),
                    "queue_depth": len(system.queue),
                },
                "trace": self.trace.to_dict(),
            }
        if op == "trace":
            return {"ok": True, "trace": self.trace.to_dict()}
        if op == "shutdown":
            self.closed = True
            return {"ok": True, "shutdown": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    async def handle_line(self, line: str) -> str:
        line = line.strip()
        if not line:
            return ""
        try:
            request = decode_line(line)
        except FramingError as exc:
            return encode_line({"ok": False, "error": str(exc)})
        response = await self.handle(request)
        return encode_line(response)

    async def serve_stdio(self, infile=None, outfile=None) -> None:
        """Serve newline-delimited JSON over stdin/stdout."""
        import asyncio

        infile = infile if infile is not None else sys.stdin
        outfile = outfile if outfile is not None else sys.stdout
        loop = asyncio.get_running_loop()
        while not self.closed:
            line = await loop.run_in_executor(None, infile.readline)
            if not line:
                break
            response = await self.handle_line(line)
            if response:
                outfile.write(response + "\n")
                outfile.flush()

    async def serve_socket(self, path: str) -> None:
        """Serve newline-delimited JSON over a unix-domain socket."""
        import asyncio

        async def on_client(reader, writer):
            while not self.closed:
                line = await reader.readline()
                if not line:
                    break
                response = await self.handle_line(line.decode("utf-8"))
                if response:
                    writer.write(response.encode("utf-8") + b"\n")
                    await writer.drain()
            writer.close()

        server = await asyncio.start_unix_server(on_client, path=path)
        async with server:
            while not self.closed:
                await asyncio.sleep(0.05)
