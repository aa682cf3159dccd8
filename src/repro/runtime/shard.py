"""Fleet telemetry for a campaign run on N engine workers.

A fleet is one :class:`~repro.runtime.engine.ExecutionEngine` run
(``repro sweep --jobs N``): the engine deals the campaign's
:class:`~repro.sim.campaign.RunSpec` jobs to its N workers one at a
time, records its width in the campaign plan (``shards``), and stamps
the slot of the worker that ran a job as ``trace["shard"]`` on every
event of that job.  This module watches that event stream:

* :class:`FleetStatus` is an event sink that counts the fleet's
  progress, fleet-wide and per worker slot, and keeps each job's
  metrics snapshot for its OpenMetrics exposition;
* :class:`FleetStatusServer` serves both on a UNIX socket
  (``--status-socket``, read by ``repro top``).

:class:`ShardCoordinator` is a thin shim over the engine, kept for
``benchmarks/e2e``'s ``fleet_2w`` workload, which constructs it and
times :meth:`ShardCoordinator.run` as a layer.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Sequence

from repro.obs import metrics as obs_metrics
from repro.runtime.engine import ExecutionEngine, ExecutionReport
from repro.runtime.events import (
    Event,
    EventSink,
    JobCached,
    JobFailed,
    JobFinished,
    MetricsSnapshot,
)
from repro.service.framing import FramingError, decode_line, encode_line
from repro.sim.campaign import RunSpec


# -- fleet telemetry ---------------------------------------------------


class FleetStatus(EventSink):
    """Thread-safe live view of a campaign, fed as one of its engine's
    sinks.

    The status socket server and the closing progress line read
    consistent snapshots.  The fleet-wide counts take every terminal
    job, cache hits included.  Each per-shard row counts the jobs that
    worker slot ran, read from the events' ``trace["shard"]``; a job
    run in the engine's own process (a cache hit, a one-worker
    campaign, or the serial fallback) shows in no row.  ``runs_per_s``
    counts terminal jobs over elapsed wall time and the ETA
    extrapolates the remaining queue at that rate.  Every
    :class:`MetricsSnapshot` the stream carries is kept for
    :meth:`openmetrics`.
    """

    def __init__(self, total: int):
        self.total = total
        self._lock = threading.Lock()
        self._counts = {"done": 0, "failed": 0, "cached": 0}
        self._shards: dict[int, dict] = {}
        self._snapshots: list[dict] = []
        self._started_at = time.monotonic()

    def emit(self, event: Event) -> None:
        if isinstance(event, MetricsSnapshot):
            with self._lock:
                self._snapshots.append(event.metrics)
            return
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

    def openmetrics(self) -> str:
        """OpenMetrics exposition of the campaign so far: the status
        gauges plus every metrics snapshot seen, folded per call (on
        the status server's thread, so :meth:`emit` only appends)."""
        from repro.obs import openmetrics as obs_openmetrics

        with self._lock:
            snapshots = list(self._snapshots)
        snapshot = (
            obs_metrics.merge_snapshots(snapshots) if snapshots else None
        )
        return obs_openmetrics.render_snapshot(
            snapshot, fleet=self.snapshot()
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

    ``metrics`` answers with :meth:`FleetStatus.openmetrics`, an
    OpenMetrics text exposition (see :mod:`repro.obs.openmetrics`) of
    the fleet-status gauges and the metric series of every job finished
    so far.
    """

    def __init__(self, status: FleetStatus, path: str | Path):
        self.status = status
        self.path = Path(path)
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
                {"ok": True, "openmetrics": self.status.openmetrics()}
            )
        return encode_line({"ok": False, "error": f"unknown op {op!r}"})

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


# -- coordinator shim ---------------------------------------------------


class ShardCoordinator:
    """One :class:`ExecutionEngine` run of width ``shards``, logging to
    ``log_sink``, with per-job metrics when ``metrics`` is set.

    ``benchmarks/e2e`` builds its ``fleet_2w`` passes on this class and
    times :meth:`run` as a layer; every other campaign builds the
    engine directly.
    """

    def __init__(
        self,
        shards: int,
        *,
        metrics: bool = False,
        log_sink: EventSink | None = None,
    ):
        self.shards = shards
        self.metrics = metrics
        self.log_sink = log_sink

    def run(self, specs: Sequence[RunSpec], **kwargs) -> ExecutionReport:
        """:meth:`ExecutionEngine.run_many` on ``specs``; ``kwargs``
        (``machines``, ``labels``, ``store``, ``resume_from``) pass
        through."""
        sinks = [self.log_sink] if self.log_sink is not None else []
        engine = ExecutionEngine(
            self.shards, sinks=sinks, metrics=self.metrics
        )
        return engine.run_many(specs, **kwargs)
