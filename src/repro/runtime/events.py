"""Structured progress events for campaign execution.

The execution engine narrates a campaign as a stream of typed events
(:class:`JobStarted`, :class:`JobCached`, :class:`JobFinished`,
:class:`JobFailed`, bracketed by :class:`CampaignStarted` and
:class:`CampaignFinished`).  Sinks consume the stream:
:class:`StderrProgressSink` renders live one-line progress,
:class:`JsonlEventSink` appends one JSON object per event for post-hoc
analysis, and :func:`replay_timings` turns such a log back into
per-job wall-clock timings.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ClassVar, Sequence


@dataclass(frozen=True)
class Event:
    """Base class for all campaign events.

    ``trace`` is the optional :class:`~repro.obs.context.TraceContext`
    in dict form, stamped by the engine when trace propagation is on.
    It is **omitted** from :meth:`to_dict` when ``None`` so unstamped
    logs keep their historical byte layout.
    """

    kind: ClassVar[str] = "event"

    timestamp: float = field(
        default_factory=time.time, kw_only=True, compare=False
    )
    trace: dict[str, Any] | None = field(
        default=None, kw_only=True, compare=False
    )

    def to_dict(self) -> dict[str, Any]:
        data = dataclasses.asdict(self)
        data["event"] = self.kind
        if data.get("trace") is None:
            data.pop("trace", None)
        return data


@dataclass(frozen=True)
class CampaignStarted(Event):
    """The engine accepted a batch of jobs."""

    kind: ClassVar[str] = "campaign_started"

    total: int


@dataclass(frozen=True)
class CampaignPlan(Event):
    """The campaign's full job list, recorded up front for resume.

    Emitted right after :class:`CampaignStarted`, before any job
    executes, so a killed campaign's event log always names every job
    it intended to run.  ``specs`` holds each
    :class:`~repro.sim.campaign.RunSpec` in ``dataclasses.asdict``
    form (rebuild with ``RunSpec.from_dict``), ``keys`` the matching
    ``RunSpec.key()`` content hashes (the result-store file names),
    and ``labels`` the display labels.  ``store`` is the result-store
    directory when the campaign is store-backed; ``machine`` is a
    minimal descriptor of a single-machine override
    (``{"name": ..., "small_frequency_ghz": ...}``) when one was
    supplied and is reconstructible from ``STANDARD_MACHINES``.
    ``failure_policy``, ``timeout_seconds`` and ``max_attempts``
    record the engine settings so a resume runs under the same rules,
    and ``metrics`` and ``spans`` whether each job emits its
    :class:`MetricsSnapshot` and :class:`SpanSnapshot`, so a resume
    collects what the interrupted campaign collected.  ``shards`` is
    the engine's worker count, so ``repro resume`` puts the campaign
    back on the same width (``None`` in logs written before the engine
    recorded it).

    Together with the terminal job events that follow it
    (:data:`TERMINAL_EVENTS`), the plan is the log's half of a durable
    campaign: :class:`~repro.runtime.resume.ResumeState` replays the
    two into per-job statuses.
    """

    kind: ClassVar[str] = "campaign_plan"

    specs: list[dict]
    keys: list[str]
    labels: list[str]
    store: str | None = None
    machine: dict | None = None
    failure_policy: str = "fail-fast"
    timeout_seconds: float | None = None
    max_attempts: int = 1
    shards: int | None = None
    metrics: bool = False
    spans: bool = False


@dataclass(frozen=True)
class JobStarted(Event):
    """A job was handed to a worker (or began executing in-process)."""

    kind: ClassVar[str] = "job_started"

    index: int
    label: str


@dataclass(frozen=True)
class JobCached(Event):
    """A job's result was served from the on-disk campaign cache."""

    kind: ClassVar[str] = "job_cached"

    index: int
    label: str
    wall_seconds: float


@dataclass(frozen=True)
class JobFinished(Event):
    """A job completed successfully.

    ``sser``/``stp`` carry the run's headline metrics so event logs
    are analyzable without reloading results.
    """

    kind: ClassVar[str] = "job_finished"

    index: int
    label: str
    wall_seconds: float
    attempts: int = 1
    cached: bool = False
    sser: float | None = None
    stp: float | None = None


@dataclass(frozen=True)
class CheckFailed(Event):
    """A job's result violated one or more paper invariants.

    Emitted by the engine's opt-in per-job check hook (``checks=``)
    just before the job's terminal :class:`JobFailed` event; carries
    the violated invariant names and a short report excerpt so event
    logs are diagnosable without re-running the checks.
    """

    kind: ClassVar[str] = "check_failed"

    index: int
    label: str
    invariants: tuple[str, ...]
    detail: str = ""


@dataclass(frozen=True)
class JobFailed(Event):
    """A job failed permanently (retries exhausted, timeout, or
    skipped by a fail-fast abort).

    ``attempts`` counts attempts that actually *completed*: retries
    exhausted reports the retry policy's total, a skipped or cancelled
    job reports 0, and a timed-out job reports 0 because the attempt
    in flight was killed mid-run (the worker may have been on any
    retry).
    """

    kind: ClassVar[str] = "job_failed"

    index: int
    label: str
    error: str
    attempts: int = 1
    wall_seconds: float = 0.0


@dataclass(frozen=True)
class MetricsSnapshot(Event):
    """A job's merged metrics registry snapshot (repro.obs.metrics).

    Emitted right before the job's terminal event when the engine runs
    with ``metrics=True``; ``metrics`` is the JSON form of
    :meth:`repro.obs.metrics.RegistrySnapshot.to_dict`, so snapshots
    from an event log merge with
    ``MetricsRegistry().merge(event.metrics)``.
    """

    kind: ClassVar[str] = "metrics_snapshot"

    index: int
    label: str
    metrics: dict[str, Any]


@dataclass(frozen=True)
class SpanSnapshot(Event):
    """A job's serialized span tree (repro.obs.tracing).

    Emitted right before the job's terminal event when the engine runs
    with ``spans=True``; ``spans`` is the JSON form of
    :meth:`repro.obs.tracing.SpanNode.to_dict`, so a log's span trees
    graft into one campaign-wide forest with
    :func:`repro.obs.tracing.merge_trees` (``repro stats --spans``).
    """

    kind: ClassVar[str] = "span_snapshot"

    index: int
    label: str
    spans: dict[str, Any]


@dataclass(frozen=True)
class PostmortemWritten(Event):
    """A flight-recorder postmortem bundle was dumped for a dead job.

    Marks in the event log that ``repro postmortem <key>`` has
    something to show: ``key`` is the job's run key (the bundle file
    name under ``<store>/postmortems/``), ``reason`` is one of
    ``failed`` / ``timeout`` / ``abandoned``.
    """

    kind: ClassVar[str] = "postmortem_written"

    index: int
    label: str
    key: str
    reason: str
    path: str = ""


@dataclass(frozen=True)
class CampaignFinished(Event):
    """The batch is done; totals for the whole campaign."""

    kind: ClassVar[str] = "campaign_finished"

    total: int
    completed: int
    cached: int
    failed: int
    wall_seconds: float


@dataclass(frozen=True)
class UnknownEvent(Event):
    """Fallback for event kinds this version does not know.

    Replaying a log written by a newer version must not crash: the raw
    dict is preserved verbatim in ``data`` (and round-trips unchanged
    through :meth:`to_dict`), so downstream tooling can still count,
    filter, or forward what it does not understand.
    """

    kind: ClassVar[str] = "unknown"

    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return dict(self.data)


#: Terminal per-job events (exactly one per job).
TERMINAL_EVENTS = (JobCached, JobFinished, JobFailed)

_EVENT_TYPES: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (
        CampaignStarted,
        CampaignPlan,
        JobStarted,
        JobCached,
        CheckFailed,
        MetricsSnapshot,
        SpanSnapshot,
        PostmortemWritten,
        JobFinished,
        JobFailed,
        CampaignFinished,
    )
}


def event_schema() -> dict[str, Any]:
    """The frozen wire schema: every known kind and its fields.

    Pinned by ``tests/fixtures/event_schema.json`` -- changing an
    existing kind's fields is a compatibility break (old logs must
    keep replaying), while *adding* kinds is fine because unknown
    kinds degrade to :class:`UnknownEvent`.
    """
    return {
        "version": 1,
        "events": {
            kind: [f.name for f in dataclasses.fields(cls)]
            for kind, cls in sorted(_EVENT_TYPES.items())
        },
    }


def _unknown_event(raw: dict[str, Any]) -> UnknownEvent:
    timestamp = raw.get("timestamp")
    if not isinstance(timestamp, (int, float)) or isinstance(timestamp, bool):
        timestamp = 0.0
    return UnknownEvent(data=raw, timestamp=float(timestamp))


def event_from_dict(data: dict[str, Any]) -> Event:
    """Rebuild an event from its :meth:`Event.to_dict` form.

    Unknown event kinds -- and known kinds whose fields this version
    cannot construct (logs written by a newer version) -- degrade to
    :class:`UnknownEvent` preserving the raw dict instead of raising.
    """
    raw = dict(data)
    data = dict(data)
    kind = data.pop("event", None)
    cls = _EVENT_TYPES.get(kind)
    if cls is None:
        return _unknown_event(raw)
    if "invariants" in data:  # JSON round-trips tuples as lists
        data["invariants"] = tuple(data["invariants"])
    try:
        return cls(**data)
    except TypeError:
        return _unknown_event(raw)


def stamp_trace(event: Event, trace: dict[str, Any] | None) -> Event:
    """Return ``event`` carrying ``trace``, unless it already has one.

    :class:`UnknownEvent` is passed through untouched -- its payload
    belongs to a foreign writer and must round-trip verbatim.
    """
    if (
        trace is None
        or event.trace is not None
        or isinstance(event, UnknownEvent)
    ):
        return event
    return dataclasses.replace(event, trace=trace)


class EventSink:
    """Consumer of campaign events.  Subclasses override :meth:`emit`."""

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any resources; safe to call twice."""


class CallbackSink(EventSink):
    """Adapter forwarding every event to a plain callable."""

    def __init__(self, callback: Callable[[Event], None]):
        self.callback = callback

    def emit(self, event: Event) -> None:
        self.callback(event)


class StderrProgressSink(EventSink):
    """Human-readable one-line-per-job progress on stderr."""

    def __init__(self, stream=None, show_starts: bool = False):
        self._stream = stream
        self.show_starts = show_starts
        self._total = 0
        self._done = 0

    @property
    def stream(self):
        return self._stream if self._stream is not None else sys.stderr

    def _print(self, message: str) -> None:
        print(message, file=self.stream, flush=True)

    def _counter(self) -> str:
        if self._total:
            width = len(str(self._total))
            return f"[{self._done:>{width}}/{self._total}]"
        return f"[{self._done}]"

    def emit(self, event: Event) -> None:
        if isinstance(event, CampaignStarted):
            self._total, self._done = event.total, 0
            self._print(f"campaign: {event.total} jobs")
        elif isinstance(event, JobStarted):
            if self.show_starts:
                self._print(f"    start    {event.label}")
        elif isinstance(event, JobCached):
            self._done += 1
            self._print(f"{self._counter()} cached   {event.label}")
        elif isinstance(event, JobFinished):
            self._done += 1
            extra = f" sser={event.sser:.3e}" if event.sser is not None else ""
            self._print(
                f"{self._counter()} done     {event.label} "
                f"({event.wall_seconds:.2f}s){extra}"
            )
        elif isinstance(event, CheckFailed):
            self._print(
                f"    CHECK    {event.label}: violated "
                f"{', '.join(event.invariants)}"
            )
        elif isinstance(event, JobFailed):
            self._done += 1
            self._print(
                f"{self._counter()} FAILED   {event.label} "
                f"after {event.attempts} attempt(s): {event.error}"
            )
        elif isinstance(event, CampaignFinished):
            self._print(
                f"campaign finished: {event.completed} ok, "
                f"{event.cached} cached, {event.failed} failed "
                f"in {event.wall_seconds:.2f}s"
            )


class JsonlEventSink(EventSink):
    """Append events to a JSONL file, one JSON object per line."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._file = None

    def emit(self, event: Event) -> None:
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("a")
            # A log whose writer was SIGKILLed can end mid-line; start
            # on a fresh line so the appended events stay parseable
            # (read_events skips the partial line, recognizing the
            # campaign-plan record that follows it).
            if self._file.tell() > 0:
                with self.path.open("rb") as existing:
                    existing.seek(-1, 2)
                    if existing.read(1) != b"\n":
                        self._file.write("\n")
        self._file.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def read_events(path: str | Path) -> list[Event]:
    """Read every event from a JSONL log written by
    :class:`JsonlEventSink`.

    A truncated or corrupt **final** line (the common outcome of a
    killed campaign mid-append) is skipped with a warning instead of
    crashing the replay.  The same applies to a corrupt line directly
    followed by a campaign-plan record: that is the kill signature
    after ``repro resume`` appended a fresh run to the log.  Corruption
    anywhere else still raises, as it means more than an interrupted
    write.
    """
    lines = [
        (number, line.strip())
        for number, line in enumerate(Path(path).read_text().splitlines(), 1)
        if line.strip()
    ]
    events = []
    for position, (number, line) in enumerate(lines):
        try:
            events.append(event_from_dict(json.loads(line)))
        except (ValueError, TypeError) as error:
            if position == len(lines) - 1:
                warnings.warn(
                    f"{path}: skipping truncated or corrupt final event "
                    f"line {number}: {error}"
                )
                break
            try:
                peek = json.loads(lines[position + 1][1])
            except ValueError:
                peek = None
            resume_markers = ("campaign_started", "campaign_plan")
            if isinstance(peek, dict) and peek.get("event") in resume_markers:
                warnings.warn(
                    f"{path}: skipping truncated event line {number} "
                    f"(a resumed campaign appended after it): {error}"
                )
                continue
            raise ValueError(
                f"{path}: corrupt event on line {number}: {error}"
            ) from error
    return events


@dataclass(frozen=True)
class JobTiming:
    """Per-job timing recovered from an event log."""

    index: int
    label: str
    wall_seconds: float
    status: str  # "ok" | "cached" | "failed"
    attempts: int = 1


def replay_timings(
    source: str | Path | Sequence[Event],
) -> list[JobTiming]:
    """Replay an event log (path or event list) to per-job timings.

    Exactly one timing per job index is returned, in index order; if a
    job has several terminal events (e.g. the campaign was re-run into
    the same log), the last one wins.
    """
    events = read_events(source) if isinstance(source, (str, Path)) else source
    timings: dict[int, JobTiming] = {}
    for event in events:
        if isinstance(event, JobCached):
            timings[event.index] = JobTiming(
                event.index, event.label, event.wall_seconds, "cached"
            )
        elif isinstance(event, JobFinished):
            timings[event.index] = JobTiming(
                event.index,
                event.label,
                event.wall_seconds,
                "ok",
                event.attempts,
            )
        elif isinstance(event, JobFailed):
            timings[event.index] = JobTiming(
                event.index,
                event.label,
                event.wall_seconds,
                "failed",
                event.attempts,
            )
    return [timings[index] for index in sorted(timings)]


def merge_event_streams(
    streams: Sequence[Sequence[Event]],
) -> list[Event]:
    """Merge several event streams into one canonical ordered list.

    Ordering rule: stable sort by the event's time axis (its
    ``timestamp``) first, then by stream id (the stream's position in
    ``streams``), then by within-stream order.  The result is a pure
    function of the streams themselves -- the order in which the
    streams were read cannot change it, which lets ``repro events`` /
    ``repro stats`` read several logs (per-shard logs of older fleets
    included) as one.
    """
    tagged = [
        (event.timestamp, shard, sequence, event)
        for shard, stream in enumerate(streams)
        for sequence, event in enumerate(stream)
    ]
    tagged.sort(key=lambda item: item[:3])
    return [event for _, _, _, event in tagged]


def read_events_merged(paths: Sequence[str | Path]) -> list[Event]:
    """Read one or more JSONL event logs as one merged stream.

    A single path reads exactly like :func:`read_events`; several
    paths merge through :func:`merge_event_streams`, with each path's
    position in ``paths`` acting as its stream id.
    """
    streams = [read_events(path) for path in paths]
    if len(streams) == 1:
        return streams[0]
    return merge_event_streams(streams)
