"""Parallel, fault-tolerant execution engine for simulation campaigns.

The paper's evaluation is a large design-space sweep (36 workload
mixes x 3 schedulers x topologies/frequencies/sampling rates); every
run is independent, so the sweep parallelizes perfectly across CPU
cores.  :class:`ExecutionEngine` deals :class:`~repro.sim.campaign.RunSpec`
jobs one at a time to worker processes it forks and owns, retries
transient job failures with capped backoff, and narrates progress
through the structured event stream in :mod:`repro.runtime.events`.

Guarantees:

* **Determinism** -- results are returned in submission order and are
  identical to serial execution (every run is seeded; workers ship
  results back through the same JSON codec used by the disk cache).
* **Fault tolerance** -- a job failure is retried per
  :class:`~repro.runtime.retry.RetryPolicy`; a permanent failure is
  surfaced as a :class:`~repro.runtime.events.JobFailed` event and
  handled per :class:`~repro.runtime.retry.FailurePolicy`, never as an
  unhandled traceback from a worker.  A worker that overruns the job
  timeout, or is still running when a fail-fast abort fires, is
  killed.  A worker that dies on its own has its job re-run
  in-process, and an environment that cannot fork runs the batch
  serially.
* **Durability** -- with a :class:`~repro.runtime.store.ResultStore`
  (``store=``), completed results persist across crashes, written
  atomically so concurrent engines sharing a store never observe a
  partial entry, and a corrupt entry reads as a miss; the event log
  records the campaign plan and every job's terminal event, and
  ``run_many(resume_from=...)`` (or ``repro resume``) finishes an
  interrupted campaign without re-running completed jobs.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
import warnings
from contextlib import ExitStack
from multiprocessing.connection import wait as wait_ready
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.ace.counters import AceCounterMode
from repro.config.machines import MachineConfig
from repro.obs import context as obs_context
from repro.obs import flight as obs_flight
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.runtime.events import (
    CampaignFinished,
    CampaignPlan,
    CampaignStarted,
    CheckFailed,
    Event,
    EventSink,
    JobCached,
    JobFailed,
    JobFinished,
    JobStarted,
    MetricsSnapshot,
    PostmortemWritten,
    SpanSnapshot,
    stamp_trace,
)
from repro.runtime.resume import ResumeState
from repro.runtime.retry import CampaignError, FailurePolicy, RetryPolicy
from repro.runtime.store import ResultStore
from repro.sim.campaign import RunSpec, build_machine, machine_fields
from repro.sim.experiment import run_workload
from repro.sim.results import RunResult
from repro.sim.serialize import (
    run_result_from_dict,
    run_result_to_dict,
    shallow_dict,
)


def default_jobs() -> int:
    """Worker-process count from ``REPRO_JOBS`` (default 1 = serial)."""
    value = os.environ.get("REPRO_JOBS", "").strip()
    try:
        return max(1, int(value)) if value else 1
    except ValueError:
        warnings.warn(f"ignoring invalid REPRO_JOBS={value!r}")
        return 1


class InjectedFault(RuntimeError):
    """Failure raised by the engine's fault-injection hook."""


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault injection, for tests and chaos drills.

    Keyed by job index (workers inherit the plan with their jobs):

    Attributes:
        fail_attempts: job index -> number of leading attempts that
            raise :class:`InjectedFault` (a value >= the retry
            policy's ``max_attempts`` makes the job fail permanently).
        sleep_seconds: job index -> delay injected before every
            attempt (exercises timeouts and completion reordering).
    """

    fail_attempts: dict[int, int] = field(default_factory=dict)
    sleep_seconds: dict[int, float] = field(default_factory=dict)

    def apply(self, index: int, attempt: int) -> None:
        delay = self.sleep_seconds.get(index, 0.0)
        if delay > 0:
            time.sleep(delay)
        if attempt <= self.fail_attempts.get(index, 0):
            raise InjectedFault(
                f"injected fault (job {index}, attempt {attempt})"
            )


@dataclass(frozen=True)
class Job:
    """One job of a batch (forked workers inherit the batch)."""

    index: int
    spec: RunSpec
    label: str
    #: ``spec.key()``, the job's result-store key.
    key: str
    machine: MachineConfig | None = None


def _execute_job(
    job: Job,
    retry: RetryPolicy,
    fault_plan: FaultPlan | None,
    collect_metrics: bool = False,
    collect_spans: bool = False,
    store: ResultStore | None = None,
) -> tuple[int, dict, int, float, dict | None, dict | None]:
    """Worker entry point: run one spec with retry, return plain data.

    Returns ``(index, result_dict, attempts, wall_seconds, metrics,
    spans)``; the result travels as the JSON-codec dict so the payload
    is trivially picklable and byte-identical to what the result store
    holds.  With a ``store``, that same dict is saved there under the
    job's key before this returns: the result is encoded once.  With
    ``collect_metrics``, the run executes under a fresh
    :class:`repro.obs.metrics.MetricsRegistry` (one per attempt, so a
    retried job reports only its successful attempt) and ``metrics``
    is its snapshot dict; with ``collect_spans``, likewise under a
    fresh :class:`repro.obs.tracing.SpanTracer` whose tree dict comes
    back as ``spans``; otherwise ``None``.
    """
    started = time.perf_counter()
    # Configuration errors (e.g. an unknown machine tag) are not
    # transient: build the machine once, outside the retry loop.
    machine = job.machine if job.machine is not None else job.spec.build_machine()
    attempt = 0
    metrics_data: dict | None = None
    spans_data: dict | None = None
    while True:
        attempt += 1
        try:
            if fault_plan is not None:
                fault_plan.apply(job.index, attempt)
            if collect_metrics or collect_spans:
                with ExitStack() as stack:
                    registry = (
                        stack.enter_context(obs_metrics.collecting())
                        if collect_metrics
                        else None
                    )
                    tracer = (
                        stack.enter_context(obs_tracing.collecting())
                        if collect_spans
                        else None
                    )
                    if registry is not None:
                        with registry.timer("runtime.job_seconds"):
                            result = _run_spec(machine, job.spec)
                    else:
                        result = _run_spec(machine, job.spec)
                if registry is not None:
                    metrics_data = registry.snapshot().to_dict()
                if tracer is not None:
                    spans_data = tracer.to_dict()
            else:
                result = _run_spec(machine, job.spec)
            break
        except Exception:
            if attempt >= retry.max_attempts:
                raise
            time.sleep(retry.delay(attempt))
    data = run_result_to_dict(result)
    if store is not None:
        store.save_dict(job.key, data)
    wall = time.perf_counter() - started
    return job.index, data, attempt, wall, metrics_data, spans_data


def clear_inherited_telemetry() -> None:
    """Start a forked child with no ambient telemetry installed.

    The fork copies the parent's trace context, flight recorder,
    metrics registry and tracer.  A child drops them, so an open parent
    span cannot leak into its events as ``trace.parent`` and its work
    cannot land in copies nobody reads.  The exact model memos it
    inherits stay.
    """
    obs_context.ACTIVE = None
    obs_flight.ACTIVE = None
    obs_metrics.ACTIVE = None
    obs_tracing.ACTIVE = None


def _worker_main(task, conn, inherited) -> None:
    """Body of a forked engine worker: run dealt positions until EOF.

    ``inherited`` holds the parent's ends of this and every sibling
    worker's pipe; closing them here lets each worker see EOF once the
    parent's own ends close, whatever happens to the parent.  Each
    reply is ``(True, task(position))`` or ``(False, exception)``; a
    reply that cannot be sent ends the worker, and the parent runs the
    position in-process.
    """
    clear_inherited_telemetry()
    for end in inherited:
        end.close()
    try:
        while True:
            position = conn.recv()
            try:
                reply = (True, task(position))
            except Exception as error:
                reply = (False, error)
            conn.send(reply)
    finally:
        # Skip the interpreter's exit path: it would flush stdio
        # buffers the fork copied from the parent.
        os._exit(0)


def _reap(process, conn) -> None:
    """Kill a worker (a no-op once it has exited), join it, close its pipe."""
    process.kill()
    process.join()
    conn.close()


def _run_spec(machine: MachineConfig, spec: RunSpec) -> RunResult:
    return run_workload(
        machine,
        spec.benchmarks,
        spec.scheduler,
        instructions=spec.instructions,
        seed=spec.seed,
        counter_mode=AceCounterMode(spec.counter_mode),
    )


@dataclass
class JobOutcome:
    """Terminal state of one job."""

    index: int
    spec: RunSpec
    label: str
    result: RunResult | None = None
    error: str | None = None
    attempts: int = 0
    wall_seconds: float = 0.0
    cached: bool = False
    #: repro.obs metrics snapshot dict shipped back from the worker
    #: (engine ``metrics=True`` only; always ``None`` for cached jobs).
    metrics: dict | None = None
    #: repro.obs span tree dict shipped back from the worker (engine
    #: ``spans=True`` only; always ``None`` for cached jobs).
    spans: dict | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class ExecutionReport:
    """Everything the engine knows after a batch completes."""

    outcomes: list[JobOutcome]
    wall_seconds: float = 0.0
    #: Campaign-wide merged metrics (engine ``metrics=True`` only).
    metrics: "obs_metrics.RegistrySnapshot | None" = None
    #: Campaign-wide merged span forest (engine ``spans=True`` only).
    spans: "obs_tracing.SpanNode | None" = None

    @property
    def results(self) -> list[RunResult | None]:
        """Results in submission order (``None`` for failed jobs)."""
        return [outcome.result for outcome in self.outcomes]

    @property
    def failures(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if o.error is not None]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def executed(self) -> int:
        return sum(1 for o in self.outcomes if not o.cached)

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_on_failure(self) -> "ExecutionReport":
        if self.failures:
            raise CampaignError(self)
        return self


class ExecutionEngine:
    """Deal :class:`RunSpec` jobs to worker processes the engine owns.

    Args:
        jobs: worker-process count, recorded in the campaign plan as
            ``shards`` so a resume keeps it; ``1`` runs everything
            in-process (no workers), which is also the
            graceful-degradation path when forking is unavailable.
        retry: per-job :class:`RetryPolicy` (applied inside workers).
        failure_policy: what a permanent job failure means for the
            batch (abort vs. collect partial results).
        timeout_seconds: per-job wall-clock budget, measured from the
            moment the job is dealt to a worker, which is when it
            starts.  A worker that overruns it is killed and replaced,
            and the job is recorded as failed with ``attempts=0`` (the
            attempt in flight was killed mid-run; with retries
            configured the true attempt number is unknowable from the
            parent).  An in-process job (``jobs=1``) cannot be
            preempted, so the serial path enforces the budget after
            the job finishes.
        sinks: event sinks receiving the progress stream.
        fault_plan: optional deterministic fault injection hook.
        checks: opt-in per-job result checker -- a callable mapping a
            :class:`RunResult` to a
            :class:`~repro.check.invariants.CheckReport` (use
            :func:`repro.check.default_run_checks` for the standard
            invariant set).  A result violating an error-severity
            invariant emits a :class:`CheckFailed` event and the job
            is treated as failed (so ``FAIL_FAST`` aborts on it and
            ``COLLECT`` keeps sibling jobs running).  Checks run in
            the parent process, on cached and executed results alike.
        metrics: collect a :mod:`repro.obs.metrics` registry inside
            every executed job (worker or in-process), emit each
            snapshot as a :class:`MetricsSnapshot` event, and merge
            them into ``ExecutionReport.metrics``.  Snapshots merge
            commutatively, so serial and parallel campaigns produce
            identical totals.  Cached jobs execute nothing and
            contribute no metrics.
        spans: collect a :mod:`repro.obs.tracing` span tree inside
            every executed job, emit each tree as a
            :class:`SpanSnapshot` event, and merge them into
            ``ExecutionReport.spans`` via
            :func:`repro.obs.tracing.merge_trees`.

    With a result store, the engine arms a
    :class:`repro.obs.flight.FlightRecorder` for the campaign.  It
    rings the last emitted events; when a job fails or times out, a
    postmortem bundle is dumped under ``<store>/postmortems/<key>.json``
    and a :class:`PostmortemWritten` event marks it.

    The engine also mints (or inherits) a
    :class:`repro.obs.context.TraceContext` per campaign -- the
    campaign id is a stable digest of the planned run keys -- and
    stamps it, plus the per-job run key, onto every emitted event.
    Workers are numbered ``0..jobs-1`` (a replacement takes the slot
    of the worker it replaces), and every event of a job dealt to a
    worker also carries that slot as ``trace["shard"]``; a job run
    in-process carries none.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        retry: RetryPolicy | None = None,
        failure_policy: FailurePolicy = FailurePolicy.FAIL_FAST,
        timeout_seconds: float | None = None,
        sinks: Sequence[EventSink] = (),
        fault_plan: FaultPlan | None = None,
        checks=None,
        metrics: bool = False,
        spans: bool = False,
    ):
        self.jobs = max(1, int(jobs))
        self.retry = retry if retry is not None else RetryPolicy()
        self.failure_policy = failure_policy
        self.timeout_seconds = timeout_seconds
        self.sinks = list(sinks)
        self.fault_plan = fault_plan
        self.checks = checks
        self.metrics = bool(metrics)
        self.spans = bool(spans)
        # Spec keys of the batch in flight (set by run_many).
        self._run_keys: list[str] | None = None
        # Per-run telemetry (armed/disarmed by run_many).
        self._trace: "obs_context.TraceContext | None" = None
        self._flight: "obs_flight.FlightRecorder | None" = None
        self._flight_store: Path | None = None
        self._flight_previous: "obs_flight.FlightRecorder | None" = None
        self._postmortem_keys: set[str] = set()
        # Job index -> slot of the worker running it (_run_parallel).
        self._slots: dict[int, int] = {}
        # Submission-path queue metrics (queue.depth / queue.wait_seconds):
        # a fresh engine-side registry under metrics=True, else whatever
        # registry is ACTIVE in the parent process.
        self._queue_registry: "obs_metrics.MetricsRegistry | None" = None
        self._batch_started = 0.0

    # -- events ------------------------------------------------------

    def _emit(self, event: Event) -> None:
        trace = self._trace
        if trace is not None:
            data = trace.to_dict()
            keys = self._run_keys
            index = getattr(event, "index", None)
            if (
                keys is not None
                and isinstance(index, int)
                and 0 <= index < len(keys)
            ):
                data["run_key"] = keys[index]
                slot = self._slots.get(index)
                if slot is not None:
                    data["shard"] = slot
            tracer = obs_tracing.ACTIVE
            if tracer is not None and len(tracer._stack) > 1:
                data["parent"] = tracer._stack[-1].label
            event = stamp_trace(event, data)
        flight = self._flight
        if flight is not None:
            flight.record(event.to_dict())
        for sink in self.sinks:
            sink.emit(event)

    # -- telemetry arming --------------------------------------------

    def _arm_telemetry(self, keys: Sequence[str], store) -> None:
        """Mint/inherit the campaign trace context; arm the recorder."""
        self._postmortem_keys = set()
        ambient = obs_context.current()
        self._trace = (
            ambient
            if ambient is not None
            else obs_context.TraceContext(
                campaign=obs_context.campaign_id(keys)
            )
        )
        if store is not None:
            self._flight = obs_flight.FlightRecorder(
                obs_flight.DEFAULT_CAPACITY,
                fingerprint={
                    "campaign": self._trace.campaign,
                    "failure_policy": self.failure_policy.value,
                    "jobs": self.jobs,
                    "max_attempts": self.retry.max_attempts,
                    "timeout_seconds": self.timeout_seconds,
                },
            )
            self._flight.mark_metrics_baseline()
            self._flight_store = store.directory
            # Install as the ambient recorder so in-process kernel
            # paths contribute window notes to the ring.
            self._flight_previous = obs_flight.ACTIVE
            obs_flight.enable(self._flight)

    def _disarm_telemetry(self) -> None:
        if self._flight is not None:
            if self._flight_previous is not None:
                obs_flight.enable(self._flight_previous)
            else:
                obs_flight.disable()
        self._trace = None
        self._flight = None
        self._flight_store = None
        self._flight_previous = None

    def _dump_postmortem(self, job: Job, reason: str, error: str) -> None:
        """Write a postmortem bundle for a dead job; emit its marker."""
        if self._flight is None or self._flight_store is None:
            return
        key = job.key
        # A spec repeated in one batch shares its key, and so its
        # bundle path, with its twin; the first bundle wins.
        if key in self._postmortem_keys:
            return
        self._postmortem_keys.add(key)
        trace = self._trace.with_run(key) if self._trace else None
        slot = self._slots.get(job.index)
        if trace is not None and slot is not None:
            trace = dataclasses.replace(trace, shard=slot)
        path = obs_flight.dump_bundle(
            self._flight_store,
            key,
            label=job.label,
            reason=reason,
            error=error,
            trace=trace,
            recorder=self._flight,
        )
        self._emit(
            PostmortemWritten(
                index=job.index,
                label=job.label,
                key=key,
                reason=reason,
                path=str(path),
            )
        )

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    # -- queue metrics ------------------------------------------------

    def _observe_queue(self, wait_seconds: float, depth: int) -> None:
        """One job left the submission queue and started executing."""
        reg = self._queue_registry
        if reg is None:
            return
        reg.timer("queue.wait_seconds").observe(wait_seconds)
        reg.gauge("queue.depth").set(float(depth))

    # -- ordered task mapping -----------------------------------------

    def map_tasks(self, fn, items) -> list:
        """Ordered parallel map (``repro load``'s load points).

        Results come back in item order, computed by the same function
        the serial path calls, so callers stay deterministic across
        worker counts.  Up to ``min(jobs, len(items))`` workers live
        for this one call and inherit ``fn`` and ``items``; only the
        results must pickle.  The map runs in-process when that is one
        worker or when forking is unavailable, and an item whose
        worker dies runs in-process.  An exception ``fn`` raises in a
        worker is raised here.
        """
        items = list(items)
        results = {}
        if min(self.jobs, len(items)) > 1:

            def finished(position, ok, value) -> bool:
                if not ok:
                    raise value
                results[position] = value
                return True

            self._deal(
                lambda position: fn(items[position]), len(items), finished
            )
        return [
            results[position] if position in results else fn(item)
            for position, item in enumerate(items)
        ]

    # -- plan ------------------------------------------------------

    @staticmethod
    def _machine_descriptor(machines) -> dict | None:
        """Minimal plan descriptor of a single-machine override.

        Only machines that :func:`~repro.sim.campaign.machine_fields`
        can describe (a standard topology with a small-core frequency
        or sampling override) are describable; anything else returns
        ``None`` and a resume falls back to ``spec.build_machine()``.
        """
        if not isinstance(machines, MachineConfig):
            return None
        fields = machine_fields(machines)
        if fields is None:
            return None
        descriptor: dict = {"name": fields["machine"]}
        if fields["small_frequency_ghz"] is not None:
            descriptor["small_frequency_ghz"] = fields["small_frequency_ghz"]
        if fields["sampling"] is not None:
            (
                descriptor["sampling_period_quanta"],
                descriptor["sampling_quantum_seconds"],
            ) = fields["sampling"]
        return descriptor

    @staticmethod
    def machine_from_descriptor(descriptor: dict | None) -> MachineConfig | None:
        """Rebuild a plan's machine override (inverse of the above)."""
        if descriptor is None:
            return None
        period = descriptor.get("sampling_period_quanta")
        return build_machine(
            descriptor["name"],
            descriptor.get("small_frequency_ghz"),
            (
                (period, descriptor["sampling_quantum_seconds"])
                if period is not None
                else None
            ),
        )

    # -- public API --------------------------------------------------

    def run_many(
        self,
        specs: Sequence[RunSpec],
        *,
        machines: MachineConfig | Sequence[MachineConfig | None] | None = None,
        labels: Sequence[str] | None = None,
        store: "ResultStore | str | Path | None" = None,
        resume_from: "ResumeState | str | Path | None" = None,
    ) -> ExecutionReport:
        """Execute a batch of specs; results come back in spec order.

        Args:
            specs: the runs to execute.
            machines: optional machine override -- a single
                :class:`MachineConfig` applied to every spec, or one
                per spec (``None`` entries fall back to
                ``spec.build_machine()``).  Required when
                ``spec.machine`` is a custom tag rather than a
                standard topology name.
            store: optional :class:`~repro.runtime.store.ResultStore`
                (or its directory).  Valid entries (one per spec
                content key) are served without executing, executed
                results are written back atomically, and the store is
                recorded in the :class:`CampaignPlan` event so the
                campaign is resumable.
            resume_from: a :class:`~repro.runtime.resume.ResumeState`
                or the path of a prior run's JSONL event log.  Jobs
                the log records as completed are served from the
                result store without executing; pending and failed
                jobs re-run.  Falls back to the log's recorded store
                when ``store`` is not given.  The report is identical
                to an uninterrupted run's, except that resumed jobs
                surface as cache hits.
            labels: optional per-spec display labels for events.
        """
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        resume = resume_from
        if resume is not None and not isinstance(resume, ResumeState):
            resume = ResumeState.load(resume)
        if resume is not None:
            resume.check_specs(specs)
            if store is None and resume.store is not None:
                store = ResultStore(resume.store)
        jobs_list = self._build_jobs(specs, machines, labels)
        keys = [job.key for job in jobs_list]
        self._run_keys = keys
        self._queue_registry = (
            obs_metrics.MetricsRegistry()
            if self.metrics
            else obs_metrics.ACTIVE
        )
        self._arm_telemetry(keys, store)
        try:
            started = time.perf_counter()
            self._emit(CampaignStarted(total=len(jobs_list)))
            self._emit(
                CampaignPlan(
                    specs=[shallow_dict(spec) for spec in specs],
                    keys=keys,
                    labels=[job.label for job in jobs_list],
                    store=str(store.directory) if store is not None else None,
                    machine=self._machine_descriptor(machines),
                    failure_policy=self.failure_policy.value,
                    timeout_seconds=self.timeout_seconds,
                    max_attempts=self.retry.max_attempts,
                    shards=self.jobs,
                    metrics=self.metrics,
                    spans=self.spans,
                )
            )

            outcomes: dict[int, JobOutcome] = {}
            to_run = []
            for job in jobs_list:
                loaded = time.perf_counter()
                result = store.load(job.key) if store is not None else None
                if result is None:
                    to_run.append(job)
                    continue
                wall = time.perf_counter() - loaded
                error = self._check_result(job, result)
                if error is not None:
                    self._record_failure(job, error, 0, wall, outcomes)
                    continue
                outcomes[job.index] = JobOutcome(
                    index=job.index,
                    spec=job.spec,
                    label=job.label,
                    result=result,
                    wall_seconds=wall,
                    cached=True,
                )
                self._emit(
                    JobCached(
                        index=job.index, label=job.label, wall_seconds=wall
                    )
                )

            cached_failure = any(
                outcomes[i].error is not None for i in outcomes
            )
            if (
                cached_failure
                and self.failure_policy is FailurePolicy.FAIL_FAST
            ):
                for job in to_run:
                    self._record_failure(
                        job, "skipped (fail-fast abort)", 0, 0.0, outcomes
                    )
            elif to_run:
                if self.jobs == 1 or len(to_run) == 1:
                    self._run_serial(to_run, outcomes, store)
                else:
                    self._run_parallel(to_run, outcomes, store)

            report = ExecutionReport(
                outcomes=[outcomes[i] for i in sorted(outcomes)],
                wall_seconds=time.perf_counter() - started,
            )
            if self.metrics:
                merged = obs_metrics.MetricsRegistry()
                for outcome in report.outcomes:
                    if outcome.metrics is not None:
                        merged.merge(outcome.metrics)
                engine_snapshot = self._queue_registry.snapshot()
                if engine_snapshot.series:
                    # Submission-path queueing metrics live in the parent,
                    # not in any worker; ship them as an index=-1 snapshot
                    # so replaying the event stream still reproduces the
                    # merged registry.
                    self._emit(
                        MetricsSnapshot(
                            index=-1,
                            label="engine",
                            metrics=engine_snapshot.to_dict(),
                        )
                    )
                    merged.merge(engine_snapshot)
                report.metrics = merged.snapshot()
            if self.spans:
                report.spans = obs_tracing.merge_trees(
                    obs_tracing.SpanNode.from_dict(o.spans)
                    for o in report.outcomes
                    if o.spans is not None
                )
            self._queue_registry = None
            self._run_keys = None
            self._emit(
                CampaignFinished(
                    total=len(report.outcomes),
                    completed=sum(1 for o in report.outcomes if o.ok),
                    cached=report.cache_hits,
                    failed=len(report.failures),
                    wall_seconds=report.wall_seconds,
                )
            )
        finally:
            self._disarm_telemetry()
        if self.failure_policy is FailurePolicy.FAIL_FAST:
            report.raise_on_failure()
        return report

    # -- batch assembly ----------------------------------------------

    def _build_jobs(self, specs, machines, labels) -> list[Job]:
        count = len(specs)
        if machines is None or isinstance(machines, MachineConfig):
            machines = [machines] * count
        if labels is None:
            labels = [self._default_label(spec) for spec in specs]
        if not (len(machines) == len(labels) == count):
            raise ValueError("specs, machines and labels must align")
        return [
            Job(
                index=index,
                spec=spec,
                label=label,
                key=spec.key(),
                machine=machine,
            )
            for index, (spec, machine, label) in enumerate(
                zip(specs, machines, labels)
            )
        ]

    @staticmethod
    def _default_label(spec: RunSpec) -> str:
        mix = "+".join(spec.benchmarks)
        return f"{spec.machine}/{spec.scheduler}/{mix}#{spec.seed}"

    # -- outcome recording -------------------------------------------

    def _check_result(self, job: Job, result: RunResult) -> str | None:
        """Apply the opt-in check hook; an error string means failure."""
        if self.checks is None or result is None:
            return None
        report = self.checks(result)
        if report.ok:
            return None
        names = report.invariant_names()
        detail = "; ".join(v.format() for v in report.errors[:3])
        self._emit(
            CheckFailed(
                index=job.index,
                label=job.label,
                invariants=names,
                detail=detail,
            )
        )
        return f"check failed: violated {', '.join(names)}"

    def _record_success(
        self,
        job: Job,
        data: dict,
        attempts: int,
        wall: float,
        outcomes,
        metrics_data: dict | None = None,
        spans_data: dict | None = None,
    ) -> bool:
        """Record a completed job; ``False`` when its checks failed."""
        result = run_result_from_dict(data)
        error = self._check_result(job, result)
        if error is not None:
            self._record_failure(job, error, attempts, wall, outcomes)
            return False
        outcomes[job.index] = JobOutcome(
            index=job.index,
            spec=job.spec,
            label=job.label,
            result=result,
            attempts=attempts,
            wall_seconds=wall,
            metrics=metrics_data,
            spans=spans_data,
        )
        if metrics_data is not None:
            self._emit(
                MetricsSnapshot(
                    index=job.index,
                    label=job.label,
                    metrics=metrics_data,
                )
            )
        if spans_data is not None:
            self._emit(
                SpanSnapshot(
                    index=job.index,
                    label=job.label,
                    spans=spans_data,
                )
            )
        self._emit(
            JobFinished(
                index=job.index,
                label=job.label,
                wall_seconds=wall,
                attempts=attempts,
                sser=result.sser,
                stp=result.stp,
            )
        )
        return True

    def _record_failure(
        self, job: Job, error: str, attempts: int, wall: float, outcomes
    ) -> None:
        outcomes[job.index] = JobOutcome(
            index=job.index,
            spec=job.spec,
            label=job.label,
            error=error,
            attempts=attempts,
            wall_seconds=wall,
        )
        self._emit(
            JobFailed(
                index=job.index,
                label=job.label,
                error=error,
                attempts=attempts,
                wall_seconds=wall,
            )
        )
        # Administrative failures (fail-fast skips/cancels) carry no
        # in-flight state worth a bundle; real deaths do.
        if not error.startswith(("skipped (", "cancelled (")):
            reason = "timeout" if error.startswith("timed out") else "failed"
            self._dump_postmortem(job, reason, error)

    # -- serial path -------------------------------------------------

    def _run_serial(
        self, jobs_list: Sequence[Job], outcomes: dict, store
    ) -> None:
        aborted = False
        self._batch_started = time.perf_counter()
        remaining = len(jobs_list)
        for job in jobs_list:
            if aborted:
                self._record_failure(
                    job, "skipped (fail-fast abort)", 0, 0.0, outcomes
                )
                continue
            remaining -= 1
            self._observe_queue(
                time.perf_counter() - self._batch_started, remaining
            )
            self._emit(JobStarted(index=job.index, label=job.label))
            started = time.perf_counter()
            try:
                with obs_tracing.span("runtime.execute_job"):
                    (
                        _,
                        data,
                        attempts,
                        wall,
                        metrics_data,
                        spans_data,
                    ) = _execute_job(
                        job, self.retry, self.fault_plan, self.metrics,
                        self.spans, store,
                    )
            except Exception as error:
                self._record_failure(
                    job,
                    f"{type(error).__name__}: {error}",
                    self.retry.max_attempts,
                    time.perf_counter() - started,
                    outcomes,
                )
                if self.failure_policy is FailurePolicy.FAIL_FAST:
                    aborted = True
                continue
            elapsed = time.perf_counter() - started
            if (
                self.timeout_seconds is not None
                and elapsed > self.timeout_seconds
            ):
                # In-process execution cannot preempt a running job,
                # so the budget is enforced post-hoc: the finished
                # result is discarded, as a killed worker's is lost.
                self._record_failure(
                    job,
                    f"timed out after {self.timeout_seconds:.1f}s",
                    attempts,
                    elapsed,
                    outcomes,
                )
                if self.failure_policy is FailurePolicy.FAIL_FAST:
                    aborted = True
                continue
            ok = self._record_success(
                job, data, attempts, wall, outcomes, metrics_data,
                spans_data,
            )
            if not ok and self.failure_policy is FailurePolicy.FAIL_FAST:
                aborted = True

    # -- parallel path -----------------------------------------------

    def _run_parallel(
        self, jobs_list: Sequence[Job], outcomes: dict, store
    ) -> None:
        """Deal the batch to workers; run what they lose in-process."""
        total = len(jobs_list)
        fail_fast = self.failure_policy is FailurePolicy.FAIL_FAST
        aborted = False
        self._batch_started = time.perf_counter()

        def task(position):
            return _execute_job(
                jobs_list[position], self.retry, self.fault_plan,
                self.metrics, self.spans, store,
            )

        def started(position, slot) -> None:
            job = jobs_list[position]
            self._slots[job.index] = slot
            self._observe_queue(
                time.perf_counter() - self._batch_started,
                total - position - 1,
            )
            self._emit(JobStarted(index=job.index, label=job.label))

        def finished(position, ok, value) -> bool:
            nonlocal aborted
            job = jobs_list[position]
            if ok:
                _, data, attempts, wall, metrics_data, spans_data = value
                ok = self._record_success(
                    job, data, attempts, wall, outcomes, metrics_data,
                    spans_data,
                )
            else:
                self._record_failure(
                    job,
                    f"{type(value).__name__}: {value}",
                    self.retry.max_attempts,
                    0.0,
                    outcomes,
                )
            aborted = fail_fast and not ok
            return not aborted

        def expired(position, elapsed) -> bool:
            nonlocal aborted
            # attempts=0: the attempt in flight was killed mid-run; how
            # many attempts the worker had completed (it may have been
            # retrying) is unknowable from the parent.
            self._record_failure(
                jobs_list[position],
                f"timed out after {self.timeout_seconds:.1f}s",
                0,
                elapsed,
                outcomes,
            )
            aborted = fail_fast
            return not aborted

        try:
            self._deal(
                task, total, finished, started=started, expired=expired
            )
        finally:
            # What follows runs in-process or never ran: no slot.
            self._slots = {}
        remaining = [job for job in jobs_list if job.index not in outcomes]
        if aborted:
            for job in remaining:
                self._record_failure(
                    job, "cancelled (fail-fast abort)", 0, 0.0, outcomes
                )
        elif remaining:
            self._run_serial(remaining, outcomes, store)

    def _deal(self, task, count, finished, *, started=None, expired=None):
        """Run ``task(position)`` for positions ``0..count-1`` on up to
        ``jobs`` forked workers, dealing one position at a time.

        Workers are forked here, so they inherit ``task`` and what it
        reads (custom machines, a fault plan, a map's closure) without
        pickling it or importing the package again; only positions and
        replies cross the pipes.  Workers hold slots ``0..jobs-1``,
        and a worker forked to replace a killed or dead one takes the
        lowest free slot, which is the one it replaces.
        ``started(position, slot)`` runs as a position is dealt, and
        ``finished(position, ok, value)`` with each reply: ``value`` is
        what ``task`` returned, or the exception it raised.  Given
        ``expired``, a worker still running ``timeout_seconds`` after
        its deal is killed, and ``expired(position, elapsed)`` runs.
        Either callback returns ``False`` to abort.  A killed worker,
        or one that dies on its own, is replaced.  Positions never
        finished -- lost with a worker, undealt because no worker
        could be forked, or cut off by an abort -- are the caller's to
        run or cancel.  Every worker is killed before this returns or
        raises.
        """
        timeout = self.timeout_seconds if expired is not None else None
        workers = min(self.jobs, count)
        # conn -> (process, position, monotonic deal time, slot)
        busy: dict = {}
        done: list = []  # (process, conn) of workers with nothing left
        dealt = 0

        def deal(process, conn, slot) -> None:
            nonlocal dealt
            try:
                conn.send(dealt)
            except OSError:
                pass  # a dead worker: its EOF is handled below
            busy[conn] = (process, dealt, time.monotonic(), slot)
            if started is not None:
                started(dealt, slot)
            dealt += 1

        try:
            context = multiprocessing.get_context("fork")
        except ValueError as error:
            warnings.warn(f"cannot fork workers ({error}); running in-process")
            return
        try:
            while dealt < count or busy:
                while dealt < count and len(busy) < workers:
                    conn, child_end = context.Pipe()
                    process = context.Process(
                        target=_worker_main,
                        args=(task, child_end, [conn, *busy]),
                        name="repro-engine-worker",
                    )
                    try:
                        process.start()
                    except OSError as error:
                        conn.close()
                        workers = len(busy)
                        warnings.warn(
                            f"cannot fork workers ({error}); "
                            + (
                                f"dealing to {workers} worker(s)"
                                if workers
                                else "running in-process"
                            )
                        )
                        break
                    finally:
                        child_end.close()
                    taken = {entry[3] for entry in busy.values()}
                    deal(process, conn, min(set(range(workers)) - taken))
                if not busy:
                    return
                wait = None
                if timeout is not None:
                    first = min(entry[2] for entry in busy.values())
                    wait = max(0.0, first + timeout - time.monotonic())
                for conn in wait_ready(list(busy), wait):
                    process, position, _, slot = busy.pop(conn)
                    try:
                        ok, value = conn.recv()
                    except (EOFError, OSError):  # the worker died
                        _reap(process, conn)
                        warnings.warn(
                            f"worker pool broke: worker {process.pid} "
                            f"exited with code {process.exitcode}; its "
                            f"task will run in-process"
                        )
                        continue
                    # Deal the next position before recording this
                    # reply, so the worker does not wait on the parent.
                    if dealt < count:
                        deal(process, conn, slot)
                    else:
                        done.append((process, conn))
                    if not finished(position, ok, value):
                        return
                if timeout is None:
                    continue
                now = time.monotonic()
                for conn, (process, position, begun, _) in list(
                    busy.items()
                ):
                    if now - begun > timeout:
                        del busy[conn]
                        _reap(process, conn)
                        if not expired(position, now - begun):
                            return
        finally:
            for process, conn in done:
                _reap(process, conn)
            for conn, (process, *_) in busy.items():
                _reap(process, conn)
