"""Sharded campaign execution: the coordinator and its fleet view.

A shard fleet is one :class:`~repro.runtime.engine.ExecutionEngine`
run whose N workers are the shards.  The engine deals the campaign's
:class:`~repro.sim.campaign.RunSpec` jobs to them one at a time, kills
a worker that overruns the job timeout or is still running when a
fail-fast abort fires, and stamps the slot of the worker that ran a
job as ``trace["shard"]`` on every event of that job.  The
coordinator adds what a fleet needs on top of the engine's event
stream:

* the campaign plan records ``shards``, so ``repro resume`` puts a
  killed fleet back on the same width;
* a :class:`FleetStatus` counts the fleet's progress, fleet-wide and
  per worker slot, for the progress line, ``--status-socket`` and
  ``repro top``;
* each job's metrics snapshot folds into
  :meth:`ShardCoordinator.openmetrics` as it arrives.

Results, stdout and result-store bytes are those of ``repro sweep`` at
any shard count, because the fleet is the same engine.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.config.machines import MachineConfig
from repro.obs import metrics as obs_metrics
from repro.runtime.engine import ExecutionEngine, ExecutionReport, FaultPlan
from repro.runtime.events import (
    CallbackSink,
    CampaignPlan,
    Event,
    EventSink,
    JobCached,
    JobFailed,
    JobFinished,
    MetricsSnapshot,
)
from repro.runtime.resume import ResumeState
from repro.runtime.retry import FailurePolicy, RetryPolicy
from repro.runtime.store import ResultStore
from repro.service.framing import FramingError, decode_line, encode_line
from repro.sim.campaign import RunSpec


# -- fleet telemetry ---------------------------------------------------


class FleetStatus:
    """Thread-safe live view of a sharded campaign.

    The coordinator feeds it the campaign's events; the status socket
    server and the progress line read consistent snapshots.  The
    fleet-wide counts take every terminal job, cache hits included.
    Each per-shard row counts the jobs that worker slot ran, read from
    the events' ``trace["shard"]``; a job run in the coordinator's
    process (a cache hit, a one-shard fleet, or the serial fallback)
    shows in no row.  ``runs_per_s`` counts terminal jobs over elapsed
    wall time and the ETA extrapolates the remaining queue at that
    rate.
    """

    def __init__(self, total: int):
        self.total = total
        self._lock = threading.Lock()
        self._counts = {"done": 0, "failed": 0, "cached": 0}
        self._shards: dict[int, dict] = {}
        self._started_at = time.monotonic()

    def record_event(self, event: Event) -> None:
        if isinstance(event, JobFailed):
            column, cached = "failed", False
        elif isinstance(event, JobCached):
            column, cached = "done", True
        elif isinstance(event, JobFinished):
            column, cached = "done", event.cached
        else:
            return
        shard = event.trace.get("shard") if event.trace else None
        with self._lock:
            self._counts[column] += 1
            self._counts["cached"] += cached
            if shard is not None:
                row = self._shards.setdefault(
                    shard, {"shard": shard, "done": 0, "failed": 0}
                )
                row[column] += 1

    def snapshot(self) -> dict:
        with self._lock:
            counts = dict(self._counts)
            shards = [dict(self._shards[s]) for s in sorted(self._shards)]
        elapsed = max(time.monotonic() - self._started_at, 1e-9)
        terminal = counts["done"] + counts["failed"]
        queued = max(0, self.total - terminal)
        rate = terminal / elapsed
        return {
            "shards": shards,
            "total": self.total,
            **counts,
            "queued": queued,
            "elapsed_seconds": elapsed,
            "runs_per_s": rate,
            "eta_seconds": (queued / rate) if rate > 0 else None,
        }

    def format_line(self) -> str:
        snap = self.snapshot()
        per_shard = " ".join(
            f"s{s['shard']}:{s['done']}"
            + (f"!{s['failed']}" if s["failed"] else "")
            for s in snap["shards"]
        )
        eta = snap["eta_seconds"]
        eta_text = f"{eta:.0f}s" if eta is not None else "-"
        return (
            f"fleet {snap['done']}/{snap['total']} done "
            f"({snap['failed']} failed, {snap['queued']} queued) "
            f"{snap['runs_per_s']:.1f} runs/s eta {eta_text}"
            + (f" [{per_shard}]" if per_shard else "")
        )


class FleetStatusServer:
    """Live fleet progress over a unix socket, framed like the
    scheduler service.

    Requests and responses are newline-delimited JSON with an ``op``
    field and an ``ok`` flag -- the ``repro serve`` substrate (see
    :mod:`repro.service.framing`) -- so any client that can talk to
    the service can watch a fleet::

        {"op": "fleet"}   ->  {"ok": true, "fleet": {...}}
        {"op": "ping"}    ->  {"ok": true, "pong": true}
        {"op": "metrics"} ->  {"ok": true, "openmetrics": "..."}

    ``metrics`` answers with an OpenMetrics text exposition (see
    :mod:`repro.obs.openmetrics`): fleet-status gauges always, plus the
    campaign's metric series when a ``metrics_source`` callable was
    wired in (the shard CLI wires the coordinator's).
    """

    def __init__(
        self,
        status: FleetStatus,
        path: str | Path,
        *,
        metrics_source: Callable[[], "str | None"] | None = None,
    ):
        self.status = status
        self.path = Path(path)
        self.metrics_source = metrics_source
        self._socket = None
        self._thread: threading.Thread | None = None
        self._closed = threading.Event()
        # Open client connections and their serving threads; close()
        # tears the connections down and joins every thread so a
        # finished fleet leaves nothing running (clients used to leak
        # as untracked daemon threads).
        self._lock = threading.Lock()
        self._clients: dict[threading.Thread, object] = {}

    def handle_line(self, line: str) -> str:
        try:
            request = decode_line(line)
        except FramingError as exc:
            return encode_line({"ok": False, "error": str(exc)})
        op = request.get("op")
        if op in ("fleet", "status"):
            return encode_line({"ok": True, "fleet": self.status.snapshot()})
        if op == "ping":
            return encode_line({"ok": True, "pong": True})
        if op == "metrics":
            return encode_line(
                {"ok": True, "openmetrics": self._render_metrics()}
            )
        return encode_line({"ok": False, "error": f"unknown op {op!r}"})

    def _render_metrics(self) -> str:
        text = None
        if self.metrics_source is not None:
            text = self.metrics_source()
        if text is None:
            from repro.obs import openmetrics

            text = openmetrics.render_snapshot(
                None, fleet=self.status.snapshot()
            )
        return text

    def start(self) -> None:
        import socket as socket_module

        if not hasattr(socket_module, "AF_UNIX"):  # pragma: no cover
            raise RuntimeError("fleet status sockets need AF_UNIX support")
        self.path.unlink(missing_ok=True)
        self._socket = socket_module.socket(
            socket_module.AF_UNIX, socket_module.SOCK_STREAM
        )
        self._socket.bind(str(self.path))
        self._socket.listen(8)
        self._socket.settimeout(0.1)

        def serve_client(connection) -> None:
            try:
                with connection, connection.makefile("rw") as stream:
                    for line in stream:
                        if not line.strip():
                            continue
                        stream.write(self.handle_line(line) + "\n")
                        stream.flush()
            except (OSError, ValueError):
                pass  # connection torn down under us by close()
            finally:
                with self._lock:
                    self._clients.pop(threading.current_thread(), None)

        def accept_loop() -> None:
            while not self._closed.is_set():
                try:
                    connection, _ = self._socket.accept()
                except OSError:
                    continue
                thread = threading.Thread(
                    target=serve_client, args=(connection,), daemon=True
                )
                with self._lock:
                    self._clients[thread] = connection
                thread.start()

        self._thread = threading.Thread(
            target=accept_loop, name="fleet-status", daemon=True
        )
        self._thread.start()

    def close(self, *, join_timeout: float = 2.0) -> None:
        import socket

        self._closed.set()
        if self._socket is not None:
            self._socket.close()
        if self._thread is not None:
            self._thread.join(timeout=join_timeout)
            self._thread = None
        with self._lock:
            clients = dict(self._clients)
        for thread, connection in clients.items():
            try:
                # shutdown (not just close) unblocks a thread parked in
                # recv on this connection; close alone would leak it.
                connection.shutdown(socket.SHUT_RDWR)  # type: ignore
            except OSError:
                pass
            try:
                connection.close()  # type: ignore[attr-defined]
            except OSError:
                pass
            thread.join(timeout=join_timeout)
        self.path.unlink(missing_ok=True)


# -- coordinator -------------------------------------------------------


class ShardCoordinator:
    """Run a campaign as a fleet of N engine workers.

    :meth:`run` is one ``ExecutionEngine(jobs=shards)`` run built from
    these settings.  One relay sink sits in front of ``sinks`` and
    ``log_sink``: it writes ``shards`` into the campaign plan, feeds
    :attr:`status` and keeps the metrics snapshots that
    :meth:`openmetrics` folds.

    Args:
        shards: worker count (>= 1); one shard runs the campaign
            in-process, as ``--jobs 1`` does.
        metrics / spans / checks: per-job metrics, span trees and
            paper-invariant checks, as on :class:`ExecutionEngine`.
        failure_policy: ``COLLECT`` reports failures in the report;
            ``FAIL_FAST`` kills the in-flight workers at the first
            failure, records the rest as cancelled and raises
            :class:`~repro.runtime.retry.CampaignError`.
        max_attempts: attempts per job, retried without backoff.
        timeout_seconds: per-job wall-clock budget; a worker that
            overruns it is killed and the job fails.
        checkpoint_every: terminal events between checkpoints.
        sinks: live sinks (progress).
        log_sink: durable sink (usually a :class:`JsonlEventSink`);
            receives the same stream as it happens.
        fault_plan: deterministic fault injection, keyed by job index
            (tests and chaos drills).
        status: optional :class:`FleetStatus` to feed (one is created
            per run otherwise; read it via :attr:`status`).
    """

    def __init__(
        self,
        shards: int,
        *,
        metrics: bool = False,
        spans: bool = False,
        checks: bool = False,
        failure_policy: FailurePolicy = FailurePolicy.FAIL_FAST,
        max_attempts: int = 1,
        timeout_seconds: float | None = None,
        checkpoint_every: int = 8,
        sinks: Sequence[EventSink] = (),
        log_sink: EventSink | None = None,
        fault_plan: FaultPlan | None = None,
        status: FleetStatus | None = None,
    ):
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        self.shards = shards
        self.metrics = metrics
        self.spans = spans
        self.checks = checks
        self.failure_policy = failure_policy
        self.max_attempts = max_attempts
        self.timeout_seconds = timeout_seconds
        self.checkpoint_every = checkpoint_every
        self.sinks = list(sinks)
        self.log_sink = log_sink
        self.fault_plan = fault_plan
        self.status = status
        self._snapshots: list[dict] = []

    def openmetrics(self) -> str:
        """OpenMetrics exposition of the fleet so far: status gauges
        plus every metrics snapshot the run has emitted.  Wired into
        :class:`FleetStatusServer` as its ``metrics_source``."""
        from repro.obs import openmetrics as obs_openmetrics

        # Folded per call, on the status server's thread, so the relay
        # only appends; list() copies the list in one step.
        snapshots = list(self._snapshots)
        snapshot = (
            obs_metrics.merge_snapshots(snapshots) if snapshots else None
        )
        fleet = self.status.snapshot() if self.status is not None else None
        return obs_openmetrics.render_snapshot(snapshot, fleet=fleet)

    def _relay(self, event: Event) -> None:
        if isinstance(event, CampaignPlan):
            event = dataclasses.replace(event, shards=self.shards)
        elif isinstance(event, MetricsSnapshot):
            self._snapshots.append(event.metrics)
        self.status.record_event(event)
        for sink in self.sinks:
            sink.emit(event)
        if self.log_sink is not None:
            self.log_sink.emit(event)

    def run(
        self,
        specs: Sequence[RunSpec],
        *,
        machines: MachineConfig | Sequence[MachineConfig | None] | None = None,
        labels: Sequence[str] | None = None,
        store: "ResultStore | str | Path | None" = None,
        resume_from: "ResumeState | str | Path | None" = None,
    ) -> ExecutionReport:
        """Execute ``specs`` on the fleet; the arguments and the report
        are those of :meth:`ExecutionEngine.run_many`."""
        specs = list(specs)
        if self.status is None:
            self.status = FleetStatus(len(specs))
        self._snapshots = []
        checks = None
        if self.checks:
            from repro.check import default_run_checks

            checks = default_run_checks
        engine = ExecutionEngine(
            jobs=self.shards,
            retry=RetryPolicy(
                max_attempts=self.max_attempts, base_delay_seconds=0.0
            ),
            failure_policy=self.failure_policy,
            timeout_seconds=self.timeout_seconds,
            checkpoint_every=self.checkpoint_every,
            sinks=[CallbackSink(self._relay)],
            fault_plan=self.fault_plan,
            checks=checks,
            metrics=self.metrics,
            spans=self.spans,
        )
        return engine.run_many(
            specs,
            machines=machines,
            labels=labels,
            store=store,
            resume_from=resume_from,
        )
