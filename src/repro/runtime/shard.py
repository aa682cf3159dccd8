"""Sharded campaign execution: coordinator, worker protocol, fleet view.

One :class:`~repro.runtime.engine.ExecutionEngine` scales to the cores
of a single host; the shard layer scales a campaign *across* engines.
The coordinator partitions a campaign's :class:`~repro.sim.campaign.
RunSpec` keyspace by stable content hash into N shards and drives each
shard in an independent worker speaking a line-oriented JSON protocol
(the same framing as the ``repro serve`` service, see
:mod:`repro.service.framing`) over a pluggable transport -- forked
local workers on pipes today, an SSH or socket backend later by
swapping the transport only.

Determinism contract (what the property tests and CI pin):

* **Shard-count invariance.**  Results are a pure function of their
  spec, the partition is a disjoint cover of the keyspace, and merged
  outcomes are reassembled in global submission order -- so merged
  stdout, result-store bytes and metrics totals are byte-identical
  across ``--shards 1/2/4``.
* **Canonical merged log.**  Per-shard event streams merge through
  :func:`repro.runtime.events.merge_event_streams`, a pure function of
  the streams; permuting shard completion order cannot change the
  merged log.
* **Resume.**  The coordinator writes the global plan and periodic
  checkpoints to its event log and every worker shares one
  content-addressed :class:`~repro.runtime.store.ResultStore`, so a
  SIGKILLed fleet resumes exactly like a single-host campaign:
  completed work is served from the store, the rest re-runs, and the
  final output is byte-identical to an uninterrupted run.

Protocol messages (one JSON object per line, keys sorted):

* coordinator -> worker: ``plan`` -- the shard's specs, global
  indices, labels, store/machine/engine settings.
* worker -> coordinator: ``hello`` (worker is up), ``event`` (one
  engine event, job indices already remapped to the global campaign),
  ``outcome`` (one finished job's full
  :meth:`~repro.runtime.engine.JobOutcome.to_dict`), ``done`` (shard
  totals plus its merged metrics snapshot), ``error`` (worker-fatal
  diagnostic).
"""

from __future__ import annotations

import dataclasses
import io
import multiprocessing
import os
import sys
import threading
import time
import warnings
from pathlib import Path
from queue import SimpleQueue
from typing import Callable, Mapping, Sequence

from repro.config.machines import MachineConfig
from repro.obs import context as obs_context
from repro.obs import flight as obs_flight
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.runtime.engine import (
    ExecutionEngine,
    ExecutionReport,
    FaultPlan,
    JobOutcome,
)
from repro.runtime.events import (
    CampaignCheckpoint,
    CampaignFinished,
    CampaignPlan,
    CampaignStarted,
    Event,
    EventSink,
    JobCached,
    JobFailed,
    JobFinished,
    JsonlEventSink,
    SpanSnapshot,
    TERMINAL_EVENTS,
    event_from_dict,
    merge_event_streams,
    stamp_trace,
)
from repro.runtime.resume import ResumeState
from repro.runtime.retry import CampaignError, FailurePolicy, RetryPolicy
from repro.runtime.store import ResultStore
from repro.service.framing import FramingError, decode_line, encode_line
from repro.sim.campaign import RunSpec

#: Protocol version stamped into every plan/hello message; a worker
#: refuses a plan from a different major version.
PROTOCOL_VERSION = 1

#: Campaign-bracketing events a worker's engine emits about its *own*
#: sub-campaign; the coordinator keeps them out of the merged global
#: stream (it emits its own brackets) but records them in the
#: per-shard logs, which stay valid standalone campaign logs.
_SHARD_LOCAL_EVENTS = (
    CampaignStarted,
    CampaignPlan,
    CampaignCheckpoint,
    CampaignFinished,
)


class ShardProtocolError(RuntimeError):
    """A worker or coordinator broke the shard wire protocol."""


# -- keyspace partition ------------------------------------------------


def shard_of(key: str, shards: int) -> int:
    """Owning shard of a spec key (a ``RunSpec.key()`` hex digest).

    The key is already a content hash, so taking it mod ``shards``
    is a stable, uniformly-spread assignment: the same spec lands on
    the same shard in every process, on every host, forever.
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    return int(key, 16) % shards


def partition_indices(
    keys: Sequence[str], shards: int
) -> list[list[int]]:
    """Partition spec positions by owning shard.

    Returns one (possibly empty) list of global indices per shard.
    The lists are a disjoint cover of ``range(len(keys))`` -- every
    index appears in exactly one shard, in ascending order -- which is
    the algebraic property the shard-count invariance tests pin.
    """
    owners: list[list[int]] = [[] for _ in range(shards)]
    for index, key in enumerate(keys):
        owners[shard_of(key, shards)].append(index)
    return owners


# -- worker plan and entry point ---------------------------------------


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """Everything one worker needs to execute its shard."""

    shard: int
    shards: int
    indices: tuple[int, ...]  # global position of each local spec
    specs: tuple[RunSpec, ...]
    labels: tuple[str, ...]
    store: str | None = None
    machine: dict | None = None  # engine machine-override descriptor
    metrics: bool = False
    checks: bool = False
    max_attempts: int = 1
    checkpoint_every: int = 8
    fail_attempts: Mapping[int, int] | None = None  # local index -> n
    sleep_seconds: Mapping[int, float] | None = None
    # Additive v1 fields (absent on old coordinators -> defaults):
    spans: bool = False
    timeout_seconds: float | None = None
    trace: Mapping[str, object] | None = None  # coordinator TraceContext

    def to_message(self) -> dict:
        return {
            "msg": "plan",
            "protocol": PROTOCOL_VERSION,
            "shard": self.shard,
            "shards": self.shards,
            "indices": list(self.indices),
            "specs": [dataclasses.asdict(spec) for spec in self.specs],
            "labels": list(self.labels),
            "store": self.store,
            "machine": self.machine,
            "metrics": self.metrics,
            "checks": self.checks,
            "max_attempts": self.max_attempts,
            "checkpoint_every": self.checkpoint_every,
            "fail_attempts": (
                {str(k): v for k, v in self.fail_attempts.items()}
                if self.fail_attempts
                else None
            ),
            "sleep_seconds": (
                {str(k): v for k, v in self.sleep_seconds.items()}
                if self.sleep_seconds
                else None
            ),
            "spans": self.spans,
            "timeout_seconds": self.timeout_seconds,
            "trace": dict(self.trace) if self.trace else None,
        }

    @classmethod
    def from_message(cls, message: Mapping) -> "ShardPlan":
        if message.get("msg") != "plan":
            raise ShardProtocolError(
                f"expected a plan message, got {message.get('msg')!r}"
            )
        if message.get("protocol") != PROTOCOL_VERSION:
            raise ShardProtocolError(
                f"protocol version mismatch: coordinator speaks "
                f"{message.get('protocol')!r}, this worker speaks "
                f"{PROTOCOL_VERSION}"
            )
        return cls(
            shard=int(message["shard"]),
            shards=int(message["shards"]),
            indices=tuple(int(i) for i in message["indices"]),
            specs=tuple(
                RunSpec.from_dict(data) for data in message["specs"]
            ),
            labels=tuple(message["labels"]),
            store=message.get("store"),
            machine=message.get("machine"),
            metrics=bool(message.get("metrics", False)),
            checks=bool(message.get("checks", False)),
            max_attempts=int(message.get("max_attempts", 1)),
            checkpoint_every=int(message.get("checkpoint_every", 8)),
            fail_attempts=(
                {int(k): int(v) for k, v in message["fail_attempts"].items()}
                if message.get("fail_attempts")
                else None
            ),
            sleep_seconds=(
                {int(k): float(v) for k, v in message["sleep_seconds"].items()}
                if message.get("sleep_seconds")
                else None
            ),
            spans=bool(message.get("spans", False)),
            timeout_seconds=(
                float(message["timeout_seconds"])
                if message.get("timeout_seconds") is not None
                else None
            ),
            trace=message.get("trace") or None,
        )


def run_worker(plan: ShardPlan, send: Callable[[dict], None]) -> None:
    """Execute one shard plan, streaming protocol messages via ``send``.

    The worker is a thin shell around the existing engine: an
    :class:`ExecutionEngine` runs the shard's specs against the shared
    result store, its event stream is remapped from shard-local job
    indices to global campaign indices and forwarded line by line, and
    every terminal outcome ships back whole so the coordinator can
    rebuild the campaign report without re-reading the store.
    """
    send(
        {
            "msg": "hello",
            "protocol": PROTOCOL_VERSION,
            "shard": plan.shard,
            "pid": os.getpid(),
            "jobs": len(plan.specs),
        }
    )
    indices = plan.indices

    def remap(event: Event) -> Event:
        index = getattr(event, "index", None)
        if isinstance(index, int) and 0 <= index < len(indices):
            event = dataclasses.replace(event, index=indices[index])
        return event

    def ship(event: Event) -> None:
        send(
            {
                "msg": "event",
                "shard": plan.shard,
                "event": remap(event).to_dict(),
            }
        )

    from repro.runtime.events import CallbackSink

    checks = None
    if plan.checks:
        from repro.check import default_run_checks

        checks = default_run_checks
    machine = ExecutionEngine.machine_from_descriptor(plan.machine)
    fault = None
    if plan.fail_attempts or plan.sleep_seconds:
        fault = FaultPlan(
            fail_attempts=dict(plan.fail_attempts or {}),
            sleep_seconds=dict(plan.sleep_seconds or {}),
        )
    engine = ExecutionEngine(
        jobs=1,
        retry=RetryPolicy(
            max_attempts=plan.max_attempts, base_delay_seconds=0.0
        ),
        failure_policy=FailurePolicy.COLLECT,
        fault_plan=fault,
        timeout_seconds=plan.timeout_seconds,
        sinks=[CallbackSink(ship)],
        checks=checks,
        metrics=plan.metrics,
        spans=plan.spans,
        checkpoint_every=plan.checkpoint_every,
    )
    # Events this worker emits carry the *fleet's* trace context (the
    # coordinator's campaign id, this shard's index), not a locally
    # re-derived one; with an old coordinator the engine mints its own.
    trace = None
    if plan.trace:
        trace = dataclasses.replace(
            obs_context.TraceContext.from_dict(plan.trace),
            shard=plan.shard,
        )
    with obs_context.activate(
        trace if trace is not None else obs_context.current()
    ):
        report = engine.run_many(
            list(plan.specs),
            machines=machine,
            labels=list(plan.labels),
            store=plan.store,
        )
    for outcome in report.outcomes:
        data = outcome.to_dict()
        data["index"] = indices[outcome.index]
        send({"msg": "outcome", "shard": plan.shard, "outcome": data})
    send(
        {
            "msg": "done",
            "shard": plan.shard,
            "wall_seconds": report.wall_seconds,
            "metrics": (
                report.metrics.to_dict()
                if report.metrics is not None
                else None
            ),
        }
    )


def worker_main(infile=None, outfile=None) -> int:
    """Pipe-worker entry point (the body of a forked local worker).

    Reads one plan line from ``infile``, streams protocol messages to
    ``outfile``, and exits.  Anything fatal becomes an ``error``
    message (so the coordinator can diagnose) plus a nonzero exit.
    """
    infile = infile if infile is not None else sys.stdin
    outfile = outfile if outfile is not None else sys.stdout

    def send(message: dict) -> None:
        outfile.write(encode_line(message) + "\n")
        outfile.flush()

    line = infile.readline()
    if not line.strip():
        send({"msg": "error", "shard": -1, "error": "no plan received"})
        return 2
    try:
        plan = ShardPlan.from_message(decode_line(line))
        run_worker(plan, send)
    except Exception as exc:
        send(
            {
                "msg": "error",
                "shard": -1,
                "error": f"{type(exc).__name__}: {exc}",
            }
        )
        return 1
    return 0


# -- transports --------------------------------------------------------


class ShardTransport:
    """One worker connection: deliver a plan, stream back messages.

    ``start`` must arrange for ``deliver`` to be called once per
    protocol message and then exactly once with ``None`` when the
    stream ends (worker exit, EOF, or crash).  Implementations may
    call ``deliver`` from any thread; the coordinator serializes
    through a queue.  An SSH or socket backend only has to reproduce
    this contract -- the protocol and coordinator stay unchanged.
    """

    def start(
        self, plan: ShardPlan, deliver: Callable[[dict | None], None]
    ) -> None:
        raise NotImplementedError

    def terminate(self) -> None:
        """Best-effort teardown of the worker (fail-fast abort)."""


def _forked_worker(line: str, write_fd: int) -> None:
    """Body of a forked worker: run the plan with fd 1 on the pipe."""
    # The fork copies the coordinator's ambient telemetry.  A worker
    # starts with none installed, so an open coordinator span cannot
    # leak into its events as ``trace.parent``.  The model memos it
    # inherits are exact and stay.
    obs_context.ACTIVE = None
    obs_flight.ACTIVE = None
    obs_metrics.ACTIVE = None
    obs_tracing.ACTIVE = None
    os.dup2(write_fd, 1)
    os.close(write_fd)
    # A stray print must reach the pipe too, never the coordinator's
    # own (possibly captured) stdout object.
    sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
    sys.exit(worker_main(io.StringIO(line)))


class ProcessShardTransport(ShardTransport):
    """Worker in a forked child process, protocol over a pipe.

    The child is a fork of the coordinator, so it starts with the
    package already imported instead of paying the import again.  It
    runs :func:`worker_main` on the encoded plan line with its fd 1 on
    the pipe, and the reader thread here decodes what it writes.
    Workers are direct children of the coordinator, so their CPU time
    counts in its ``RUSAGE_CHILDREN``.  A remote transport would exec
    a worker on another host instead; the protocol is the same lines.
    """

    def __init__(self):
        self._process: multiprocessing.process.BaseProcess | None = None
        self._reader: threading.Thread | None = None

    def start(
        self, plan: ShardPlan, deliver: Callable[[dict | None], None]
    ) -> None:
        line = encode_line(plan.to_message()) + "\n"
        try:
            context = multiprocessing.get_context("fork")
            read_fd, write_fd = os.pipe()
            try:
                process = context.Process(
                    target=_forked_worker,
                    args=(line, write_fd),
                    name=f"shard-{plan.shard}-worker",
                )
                # Forking while earlier workers' reader threads run is
                # safe: each of them is blocked on its own pipe, the
                # child touches none of their objects and leaves
                # through os._exit, and the process already has
                # numpy's BLAS thread when the engine's pool forks.
                process.start()
            except OSError:
                os.close(read_fd)
                raise
            finally:
                os.close(write_fd)
        except (OSError, ValueError) as exc:
            # No worker: say why and end the stream, so the
            # coordinator re-runs the shard in-process.
            deliver(
                {
                    "msg": "error",
                    "shard": plan.shard,
                    "error": "cannot start worker: "
                    f"{type(exc).__name__}: {exc}",
                }
            )
            deliver(None)
            return
        self._process = process
        pipe = open(read_fd, encoding="utf-8", errors="replace")

        def pump() -> None:
            try:
                for line in pipe:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        message = decode_line(line)
                    except FramingError:
                        # A stray print on the worker's stdout must
                        # not take the fleet down; note it and move on.
                        warnings.warn(
                            f"shard {plan.shard}: ignoring non-protocol "
                            f"output: {line[:120]!r}"
                        )
                        continue
                    deliver(message)
            finally:
                pipe.close()
                process.join()
                deliver(None)

        self._reader = threading.Thread(
            target=pump, name=f"shard-{plan.shard}-reader", daemon=True
        )
        self._reader.start()

    def terminate(self) -> None:
        if self._process is not None:
            self._process.kill()


class InProcessShardTransport(ShardTransport):
    """Worker run synchronously in the coordinator's process.

    No parallelism -- shards execute one after another during
    ``start`` -- but the full protocol still runs, which makes this
    the deterministic backend for tests, the fuzzer, and environments
    where spawning processes is unavailable.
    """

    def start(
        self, plan: ShardPlan, deliver: Callable[[dict | None], None]
    ) -> None:
        try:
            run_worker(plan, deliver)
        except Exception as exc:  # worker-fatal, coordinator recovers
            deliver(
                {
                    "msg": "error",
                    "shard": plan.shard,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
        finally:
            deliver(None)


# -- fleet telemetry ---------------------------------------------------


@dataclasses.dataclass
class ShardProgress:
    """Live counters for one shard."""

    shard: int
    total: int
    done: int = 0
    failed: int = 0
    cached: int = 0
    started: bool = False
    finished: bool = False

    @property
    def queued(self) -> int:
        return max(0, self.total - self.done - self.failed)


class FleetStatus:
    """Thread-safe live view of a sharded campaign.

    The coordinator updates it from the message loop; the status
    socket server and the progress line read consistent snapshots.
    ``runs_per_s`` counts terminal jobs over elapsed wall time and the
    ETA extrapolates the remaining queue at that rate.
    """

    def __init__(self, totals: Sequence[int]):
        self._lock = threading.Lock()
        self._shards = [
            ShardProgress(shard=shard, total=total)
            for shard, total in enumerate(totals)
        ]
        self._started_at = time.monotonic()

    def mark_started(self, shard: int) -> None:
        with self._lock:
            self._shards[shard].started = True

    def mark_finished(self, shard: int) -> None:
        with self._lock:
            self._shards[shard].finished = True

    def record_event(self, shard: int, event: Event) -> None:
        with self._lock:
            progress = self._shards[shard]
            if isinstance(event, JobCached):
                progress.done += 1
                progress.cached += 1
            elif isinstance(event, JobFinished):
                progress.done += 1
                if event.cached:
                    progress.cached += 1
            elif isinstance(event, JobFailed):
                progress.failed += 1

    def snapshot(self) -> dict:
        with self._lock:
            shards = [dataclasses.asdict(p) for p in self._shards]
            for entry, progress in zip(shards, self._shards):
                entry["queued"] = progress.queued
        elapsed = max(time.monotonic() - self._started_at, 1e-9)
        done = sum(s["done"] for s in shards)
        failed = sum(s["failed"] for s in shards)
        queued = sum(s["queued"] for s in shards)
        rate = (done + failed) / elapsed
        return {
            "shards": shards,
            "total": sum(s["total"] for s in shards),
            "done": done,
            "failed": failed,
            "queued": queued,
            "cached": sum(s["cached"] for s in shards),
            "elapsed_seconds": elapsed,
            "runs_per_s": rate,
            "eta_seconds": (queued / rate) if rate > 0 else None,
        }

    def format_line(self) -> str:
        snap = self.snapshot()
        per_shard = " ".join(
            f"s{s['shard']}:{s['done']}/{s['total']}"
            + (f"!{s['failed']}" if s["failed"] else "")
            for s in snap["shards"]
        )
        eta = snap["eta_seconds"]
        eta_text = f"{eta:.0f}s" if eta is not None else "-"
        return (
            f"fleet {snap['done']}/{snap['total']} done "
            f"({snap['failed']} failed, {snap['queued']} queued) "
            f"{snap['runs_per_s']:.1f} runs/s eta {eta_text} [{per_shard}]"
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
    """Drive a campaign across N shard workers and merge the results.

    The coordinator owns the global campaign narrative: it emits the
    plan (with ``shards`` recorded, so ``repro resume`` knows), relays
    every worker event to its live sinks as it arrives, appends
    periodic global checkpoints to the durable log, and -- once every
    shard reports done -- writes the canonically-merged per-shard
    streams plus the final checkpoint and campaign summary.  A worker
    that dies mid-shard (EOF before ``done``) has its unfinished jobs
    re-run in-process, mirroring the engine's broken-pool fallback, so
    one lost host degrades throughput, not the campaign.

    Args:
        shards: shard count (>= 1).
        transport_factory: zero-arg callable building one
            :class:`ShardTransport` per shard; defaults to forked
            local workers on pipes (:class:`ProcessShardTransport`).
        metrics: workers collect metrics; per-shard snapshots fold
            into the report's fleet total.
        checks: workers validate results against the paper invariants.
        failure_policy: ``COLLECT`` reports failures in the report;
            ``FAIL_FAST`` additionally raises :class:`CampaignError`
            after the fleet drains (shards are not aborted mid-flight,
            keeping merged output deterministic).
        max_attempts / checkpoint_every: forwarded engine settings.
        sinks: live sinks (progress); receive global brackets plus
            job events in arrival order, like a parallel engine's.
        log_sink: durable sink (usually a :class:`JsonlEventSink`);
            receives global brackets, periodic checkpoints, and the
            canonical merged stream at completion.
        shard_log_base: when set, each shard's raw stream is also
            written to ``<base>.shard<N>.jsonl`` -- standalone,
            individually-resumable campaign logs that ``repro events``
            / ``repro stats`` can merge back deterministically.
        fault_plan: deterministic fault injection, keyed by global job
            index (tests and chaos drills); split per shard.
        status: optional :class:`FleetStatus` to feed (one is created
            internally otherwise; read it via :attr:`status`).
    """

    def __init__(
        self,
        shards: int,
        *,
        transport_factory: Callable[[], ShardTransport] | None = None,
        metrics: bool = False,
        spans: bool = False,
        checks: bool = False,
        failure_policy: FailurePolicy = FailurePolicy.FAIL_FAST,
        max_attempts: int = 1,
        timeout_seconds: float | None = None,
        checkpoint_every: int = 8,
        sinks: Sequence[EventSink] = (),
        log_sink: EventSink | None = None,
        shard_log_base: str | Path | None = None,
        fault_plan: FaultPlan | None = None,
        status: FleetStatus | None = None,
    ):
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        self.shards = shards
        self.transport_factory = (
            transport_factory
            if transport_factory is not None
            else ProcessShardTransport
        )
        self.metrics = metrics
        self.spans = spans
        self.checks = checks
        self.failure_policy = failure_policy
        self.max_attempts = max_attempts
        self.timeout_seconds = timeout_seconds
        self.checkpoint_every = max(1, checkpoint_every)
        self.sinks = list(sinks)
        self.log_sink = log_sink
        self.shard_log_base = shard_log_base
        self.fault_plan = fault_plan
        self.status = status
        self._trace: obs_context.TraceContext | None = None
        self._shard_metrics: dict[int, dict | None] = {}

    # -- emission helpers ---------------------------------------------

    def _emit_bracket(self, event: Event) -> None:
        """Campaign-level events go to live sinks and the log."""
        if self._trace is not None:
            event = stamp_trace(event, self._trace.to_dict())
        for sink in self.sinks:
            sink.emit(event)
        if self.log_sink is not None:
            self.log_sink.emit(event)

    def openmetrics(self) -> str:
        """OpenMetrics exposition of the fleet so far: status gauges
        plus whatever per-shard metric snapshots have arrived.  Wired
        into :class:`FleetStatusServer` as its ``metrics_source``."""
        from repro.obs import openmetrics as obs_openmetrics

        snapshot = None
        if self._shard_metrics:
            snapshot = obs_metrics.merge_snapshots(
                self._shard_metrics.get(shard)
                for shard in sorted(self._shard_metrics)
            )
        fleet = self.status.snapshot() if self.status is not None else None
        return obs_openmetrics.render_snapshot(snapshot, fleet=fleet)

    def _emit_live(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    # -- plan construction --------------------------------------------

    def _build_plans(
        self,
        owners: Sequence[Sequence[int]],
        specs: Sequence[RunSpec],
        labels: Sequence[str],
        store: ResultStore | None,
        machine_descriptor: dict | None,
    ) -> dict[int, ShardPlan]:
        plans: dict[int, ShardPlan] = {}
        for shard, indices in enumerate(owners):
            if not indices:
                continue
            fail_attempts = sleep_seconds = None
            if self.fault_plan is not None:
                local = {g: i for i, g in enumerate(indices)}
                fail_attempts = {
                    local[g]: n
                    for g, n in self.fault_plan.fail_attempts.items()
                    if g in local
                } or None
                sleep_seconds = {
                    local[g]: s
                    for g, s in self.fault_plan.sleep_seconds.items()
                    if g in local
                } or None
            plans[shard] = ShardPlan(
                shard=shard,
                shards=self.shards,
                indices=tuple(indices),
                specs=tuple(specs[i] for i in indices),
                labels=tuple(labels[i] for i in indices),
                store=(
                    str(store.directory) if store is not None else None
                ),
                machine=machine_descriptor,
                metrics=self.metrics,
                checks=self.checks,
                max_attempts=self.max_attempts,
                checkpoint_every=self.checkpoint_every,
                fail_attempts=fail_attempts,
                sleep_seconds=sleep_seconds,
                spans=self.spans,
                timeout_seconds=self.timeout_seconds,
                trace=(
                    self._trace.to_dict()
                    if self._trace is not None
                    else None
                ),
            )
        return plans

    # -- execution ----------------------------------------------------

    def run(
        self,
        specs: Sequence[RunSpec],
        *,
        machines: MachineConfig | None = None,
        labels: Sequence[str] | None = None,
        store: "ResultStore | str | Path | None" = None,
        resume_from: "ResumeState | str | Path | None" = None,
    ) -> ExecutionReport:
        """Execute ``specs`` across the fleet; the report comes back
        in global submission order, exactly as the single-host engine
        would have returned it."""
        specs = list(specs)
        if machines is not None and not isinstance(machines, MachineConfig):
            raise ValueError(
                "the shard coordinator takes a single machine override; "
                "per-spec machine lists are not shardable"
            )
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        resume = resume_from
        if resume is not None and not isinstance(resume, ResumeState):
            resume = ResumeState.load(resume)
        if resume is not None:
            resume.check_specs(specs)
            if store is None and resume.store is not None:
                store = ResultStore(resume.store)
        keys = [spec.key() for spec in specs]
        if labels is None:
            labels = [ExecutionEngine._default_label(s) for s in specs]
        labels = list(labels)
        if len(labels) != len(specs):
            raise ValueError("specs and labels must align")
        machine_descriptor = ExecutionEngine._machine_descriptor(machines)

        # The fleet's trace context: ambient if a caller installed one,
        # else minted from the planned keyspace.  The coordinator
        # stamps its own brackets with it and ships it to every worker
        # in the plan, so one campaign id correlates the whole fleet.
        context = obs_context.current()
        if context is None:
            context = obs_context.TraceContext(
                campaign=obs_context.campaign_id(keys)
            )
        self._trace = context
        self._shard_metrics = {}

        started = time.perf_counter()
        self._emit_bracket(CampaignStarted(total=len(specs)))
        self._emit_bracket(
            CampaignPlan(
                specs=[dataclasses.asdict(spec) for spec in specs],
                keys=keys,
                labels=labels,
                store=(
                    str(store.directory) if store is not None else None
                ),
                machine=machine_descriptor,
                failure_policy=self.failure_policy.value,
                timeout_seconds=self.timeout_seconds,
                max_attempts=self.max_attempts,
                shards=self.shards,
            )
        )

        owners = partition_indices(keys, self.shards)
        plans = self._build_plans(
            owners, specs, labels, store, machine_descriptor
        )
        if self.status is None:
            self.status = FleetStatus([len(o) for o in owners])
        status = self.status

        shard_logs: dict[int, JsonlEventSink] = {}
        if self.shard_log_base is not None:
            base = Path(self.shard_log_base)
            for shard in plans:
                shard_logs[shard] = JsonlEventSink(
                    base.with_name(f"{base.name}.shard{shard}.jsonl")
                )

        inbox: SimpleQueue = SimpleQueue()
        transports: dict[int, ShardTransport] = {}

        def deliverer(shard: int) -> Callable[[dict | None], None]:
            return lambda message: inbox.put((shard, message))

        for shard, plan in plans.items():
            transport = self.transport_factory()
            transports[shard] = transport
            transport.start(plan, deliverer(shard))

        streams: dict[int, list[Event]] = {s: [] for s in plans}
        outcomes: dict[int, JobOutcome] = {}
        statuses: dict[str, str] = dict.fromkeys(
            (k for k in keys), "pending"
        )
        span_roots: list[obs_tracing.SpanNode] = []
        shard_metrics = self._shard_metrics
        shard_errors: dict[int, str] = {}
        done_shards: set[int] = set()
        open_shards = set(plans)
        terminal_since_checkpoint = 0

        def emit_checkpoint() -> None:
            if self.log_sink is None:
                return
            completed = sorted(
                k for k, s in statuses.items() if s == "completed"
            )
            failed = sorted(k for k, s in statuses.items() if s == "failed")
            pending = sorted(
                k for k, s in statuses.items() if s == "pending"
            )
            checkpoint: Event = CampaignCheckpoint(
                completed=completed, failed=failed, pending=pending
            )
            if self._trace is not None:
                checkpoint = stamp_trace(checkpoint, self._trace.to_dict())
            self.log_sink.emit(checkpoint)

        while open_shards:
            shard, message = inbox.get()
            if message is None:
                open_shards.discard(shard)
                if shard not in done_shards:
                    self._recover_shard(
                        shard,
                        plans[shard],
                        shard_errors.get(shard),
                        specs,
                        labels,
                        store,
                        machines,
                        outcomes,
                        streams,
                        statuses,
                        shard_metrics,
                        status,
                        shard_logs.get(shard),
                        span_roots,
                    )
                status.mark_finished(shard)
                continue
            kind = message.get("msg")
            if kind == "hello":
                status.mark_started(shard)
            elif kind == "event":
                event = event_from_dict(message.get("event", {}))
                if shard in shard_logs:
                    shard_logs[shard].emit(event)
                if isinstance(event, _SHARD_LOCAL_EVENTS):
                    continue
                streams[shard].append(event)
                status.record_event(shard, event)
                self._emit_live(event)
                if (
                    self.spans
                    and isinstance(event, SpanSnapshot)
                    and event.spans
                ):
                    span_roots.append(
                        obs_tracing.SpanNode.from_dict(event.spans)
                    )
                if isinstance(event, TERMINAL_EVENTS):
                    if 0 <= event.index < len(keys):
                        statuses[keys[event.index]] = (
                            "failed"
                            if isinstance(event, JobFailed)
                            else "completed"
                        )
                    terminal_since_checkpoint += 1
                    if (
                        terminal_since_checkpoint % self.checkpoint_every
                        == 0
                    ):
                        emit_checkpoint()
            elif kind == "outcome":
                data = message.get("outcome", {})
                outcome = JobOutcome.from_dict(data)
                outcomes[outcome.index] = outcome
            elif kind == "done":
                done_shards.add(shard)
                shard_metrics[shard] = message.get("metrics")
            elif kind == "error":
                shard_errors[shard] = str(message.get("error"))
            else:
                warnings.warn(
                    f"shard {shard}: ignoring unknown protocol "
                    f"message {kind!r}"
                )

        for sink in shard_logs.values():
            sink.close()

        missing = [i for i in range(len(specs)) if i not in outcomes]
        if missing:
            raise ShardProtocolError(
                f"fleet finished but {len(missing)} job(s) have no "
                f"outcome (first missing index {missing[0]}); shard "
                f"errors: {shard_errors or 'none'}"
            )

        # Canonical merged log: a pure function of the per-shard
        # streams, so shard completion order cannot change it.
        if self.log_sink is not None:
            merged = merge_event_streams(
                [streams[shard] for shard in sorted(streams)]
            )
            for event in merged:
                self.log_sink.emit(event)
            emit_checkpoint()

        ordered = [outcomes[i] for i in range(len(specs))]
        report = ExecutionReport(
            outcomes=ordered,
            wall_seconds=time.perf_counter() - started,
        )
        if self.metrics:
            report.metrics = obs_metrics.merge_snapshots(
                shard_metrics.get(shard) for shard in sorted(plans)
            )
        if self.spans:
            # Fleet-wide span forest: every shipped SpanSnapshot tree
            # grafted through the commutative fold, so the forest is
            # independent of shard completion order.
            report.spans = obs_tracing.merge_trees(span_roots)
        self._emit_bracket(
            CampaignFinished(
                total=len(ordered),
                completed=sum(1 for o in ordered if o.ok),
                cached=sum(1 for o in ordered if o.cached),
                failed=sum(1 for o in ordered if o.error is not None),
                wall_seconds=report.wall_seconds,
            )
        )
        failures = [o for o in ordered if o.error is not None]
        if failures and self.failure_policy is FailurePolicy.FAIL_FAST:
            raise CampaignError(report)
        return report

    def _recover_shard(
        self,
        shard: int,
        plan: ShardPlan,
        error: str | None,
        specs: Sequence[RunSpec],
        labels: Sequence[str],
        store: ResultStore | None,
        machines: MachineConfig | None,
        outcomes: dict[int, JobOutcome],
        streams: dict[int, list[Event]],
        statuses: dict[str, str],
        shard_metrics: dict[int, dict | None],
        status: FleetStatus,
        shard_log: JsonlEventSink | None,
        span_roots: list[obs_tracing.SpanNode] | None = None,
    ) -> None:
        """Re-run a dead worker's unfinished jobs in-process.

        Jobs whose outcomes already arrived are kept; anything else on
        the shard (including work the dead worker may have half done
        -- the shared store makes re-runs cache hits) executes through
        a local engine so the campaign still completes, deterministic
        output included.
        """
        from repro.runtime.events import CallbackSink

        missing = [g for g in plan.indices if g not in outcomes]
        warnings.warn(
            f"shard {shard} worker died before reporting done"
            + (f" ({error})" if error else "")
            + f"; re-running its {len(missing)} unfinished job(s) "
            "in-process"
        )
        if not missing:
            return
        keys = [spec.key() for spec in specs]

        def absorb(event: Event) -> None:
            # The local engine numbers this remnant 0..k-1; remap to
            # the global campaign exactly like a worker would.
            index = getattr(event, "index", None)
            if isinstance(index, int) and 0 <= index < len(missing):
                event = dataclasses.replace(event, index=missing[index])
            if shard_log is not None:
                shard_log.emit(event)
            if isinstance(event, _SHARD_LOCAL_EVENTS):
                return
            streams[shard].append(event)
            status.record_event(shard, event)
            self._emit_live(event)
            if (
                self.spans
                and span_roots is not None
                and isinstance(event, SpanSnapshot)
                and event.spans
            ):
                span_roots.append(
                    obs_tracing.SpanNode.from_dict(event.spans)
                )
            if isinstance(event, TERMINAL_EVENTS):
                if 0 <= event.index < len(keys):
                    statuses[keys[event.index]] = (
                        "failed"
                        if isinstance(event, JobFailed)
                        else "completed"
                    )

        checks = None
        if self.checks:
            from repro.check import default_run_checks

            checks = default_run_checks
        fault = None
        if plan.fail_attempts or plan.sleep_seconds:
            remnant = {g: i for i, g in enumerate(missing)}
            fault = FaultPlan(
                fail_attempts={
                    remnant[g]: n
                    for l, n in (plan.fail_attempts or {}).items()
                    for g in [plan.indices[l]]
                    if g in remnant
                },
                sleep_seconds={
                    remnant[g]: s
                    for l, s in (plan.sleep_seconds or {}).items()
                    for g in [plan.indices[l]]
                    if g in remnant
                },
            )
        engine = ExecutionEngine(
            jobs=1,
            retry=RetryPolicy(
                max_attempts=self.max_attempts, base_delay_seconds=0.0
            ),
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=fault,
            timeout_seconds=self.timeout_seconds,
            sinks=[CallbackSink(absorb)],
            checks=checks,
            metrics=self.metrics,
            spans=self.spans,
            checkpoint_every=self.checkpoint_every,
        )
        # The remnant runs under the dead shard's trace context so its
        # events and postmortems still attribute to that shard.
        recovery_trace = (
            dataclasses.replace(self._trace, shard=shard)
            if self._trace is not None
            else None
        )
        with obs_context.activate(recovery_trace):
            report = engine.run_many(
                [specs[g] for g in missing],
                machines=machines,
                labels=[labels[g] for g in missing],
                store=store,
            )
        for outcome in report.outcomes:
            data = outcome.to_dict()
            data["index"] = missing[outcome.index]
            outcomes[missing[outcome.index]] = JobOutcome.from_dict(data)
        if self.metrics and report.metrics is not None:
            previous = shard_metrics.get(shard)
            shard_metrics[shard] = obs_metrics.merge_snapshots(
                [previous, report.metrics]
            ).to_dict()

