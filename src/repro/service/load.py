"""Closed-loop load generation: queueing delay vs SSER curves.

``repro load`` drives one :class:`~repro.service.server.OpenSystem`
per arrival rate with a seeded arrival stream and summarises each run
as a :class:`LoadPoint`: shed rate, exact queueing-delay percentiles,
and the SSER accumulated by the completed jobs.  Sweeping the rate
produces the open-system trade-off curve the fixed-mix pipeline
cannot express -- at low load the reliability placer keeps SSER down
with empty-slot headroom; approaching saturation, queueing delay
climbs until admission control sheds the excess.

The points are independent, so ``repro load --jobs N`` maps
:func:`run_load_task` over them on N worker processes and prints and
writes every point in rate order: the output is the same at any
``--jobs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

from repro.service.arrivals import ArrivalProcess
from repro.service.events import ServiceFeed
from repro.service.server import OpenSystem, ServiceConfig, ServiceResult

__all__ = [
    "LoadPoint",
    "TimelineWindow",
    "exact_percentile",
    "format_load_table",
    "format_timeline",
    "run_load_point",
    "run_load_task",
    "service_timeline",
]


def exact_percentile(values: Sequence[float], q: float) -> float | None:
    """Exact (no interpolation) percentile of a sample.

    Returns the smallest value v such that at least ``q`` of the
    sample is <= v; ``None`` for an empty sample.
    """
    if not values:
        return None
    if not 0.0 < q <= 1.0:
        raise ValueError("percentile must be in (0, 1]")
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index]


@dataclass(frozen=True)
class LoadPoint:
    """One arrival rate's outcome on the delay-vs-SSER curve."""

    rate_per_second: float
    result: ServiceResult
    digest: str

    @property
    def shed_rate(self) -> float:
        if self.result.arrived == 0:
            return 0.0
        return self.result.shed / self.result.arrived

    @property
    def mean_wait(self) -> float | None:
        waits = self.result.waits
        return sum(waits) / len(waits) if waits else None

    @property
    def p95_wait(self) -> float | None:
        return exact_percentile(self.result.waits, 0.95)

    @property
    def p99_wait(self) -> float | None:
        return exact_percentile(self.result.waits, 0.99)

    def to_dict(self) -> dict[str, Any]:
        return {
            "rate_per_second": self.rate_per_second,
            "digest": self.digest,
            "shed_rate": self.shed_rate,
            "mean_wait_seconds": self.mean_wait,
            "p95_wait_seconds": self.p95_wait,
            "p99_wait_seconds": self.p99_wait,
            **self.result.to_dict(),
        }


def run_load_point(
    config: ServiceConfig,
    process: ArrivalProcess,
    count: int,
    *,
    feed: ServiceFeed | None = None,
    recorder=None,
) -> LoadPoint:
    """Run ``count`` arrivals of one process through a fresh system."""
    feed = feed if feed is not None else ServiceFeed()
    system = OpenSystem(config, feed=feed, recorder=recorder)
    system.enqueue_arrivals(process.stream(count))
    result = system.run()
    return LoadPoint(
        rate_per_second=process.rate_per_second,
        result=result,
        digest=feed.digest(),
    )


def run_load_task(
    task: tuple[ServiceConfig, ArrivalProcess, int],
) -> tuple[LoadPoint, ServiceFeed]:
    """Run one (config, process, count) load point with an in-memory
    feed and return the point and its feed.

    ``repro load`` maps this over its rates with
    ``ExecutionEngine.map_tasks``.  It is a module-level function of
    picklable inputs, so a worker process under any start method runs
    it exactly as the caller would.
    """
    config, process, count = task
    feed = ServiceFeed()
    return run_load_point(config, process, count, feed=feed), feed


@dataclass(frozen=True)
class TimelineWindow:
    """Aggregates of one virtual-time window of a service run."""

    start_seconds: float
    end_seconds: float
    arrived: int
    started: int
    shed: int
    departed: int
    queue_depth: int  # waiting jobs at window end
    running: int  # in-service jobs at window end
    p50_start_latency: float | None
    p95_start_latency: float | None

    @property
    def shed_rate(self) -> float:
        return (self.shed / self.arrived) if self.arrived else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "start_seconds": self.start_seconds,
            "end_seconds": self.end_seconds,
            "arrived": self.arrived,
            "started": self.started,
            "shed": self.shed,
            "departed": self.departed,
            "queue_depth": self.queue_depth,
            "running": self.running,
            "shed_rate": self.shed_rate,
            "p50_start_latency_seconds": self.p50_start_latency,
            "p95_start_latency_seconds": self.p95_start_latency,
        }


def service_timeline(
    events: Sequence[dict],
    *,
    window_seconds: float | None = None,
    windows: int = 12,
) -> list[TimelineWindow]:
    """Per-window operational view of a service run, computed post-hoc
    from the retained :class:`ServiceFeed` events.

    Each window counts its arrivals/starts/sheds/departures, carries
    exact p50/p95 start latency (the ``wait_seconds`` of its ``start``
    events), and reports queue depth and in-service occupancy at the
    window boundary from the cumulative conservation identities
    (``queued = arrived - started - shed``,
    ``running = started - departed``).  A pure function of the feed,
    so it is as deterministic as the feed digest itself.
    """
    if not events:
        return []
    times = [float(event["time"]) for event in events]
    t0, t1 = min(times), max(times)
    span = max(t1 - t0, 1e-9)
    if window_seconds is None:
        if windows < 1:
            raise ValueError("timeline needs at least one window")
        window_seconds = span / windows
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    count = max(1, math.ceil(span / window_seconds))
    buckets: list[list[dict]] = [[] for _ in range(count)]
    for event in events:
        index = int((float(event["time"]) - t0) / window_seconds)
        buckets[min(index, count - 1)].append(event)
    out: list[TimelineWindow] = []
    arrived = started = shed = departed = 0
    for index, bucket in enumerate(buckets):
        kinds = [event["event"] for event in bucket]
        w_arrived = kinds.count("arrive")
        w_started = kinds.count("start")
        w_shed = kinds.count("shed")
        w_departed = kinds.count("depart")
        arrived += w_arrived
        started += w_started
        shed += w_shed
        departed += w_departed
        waits = [
            float(event["wait_seconds"])
            for event in bucket
            if event["event"] == "start"
        ]
        out.append(
            TimelineWindow(
                start_seconds=t0 + index * window_seconds,
                end_seconds=min(t0 + (index + 1) * window_seconds, t1),
                arrived=w_arrived,
                started=w_started,
                shed=w_shed,
                departed=w_departed,
                queue_depth=arrived - started - shed,
                running=started - departed,
                p50_start_latency=exact_percentile(waits, 0.50),
                p95_start_latency=exact_percentile(waits, 0.95),
            )
        )
    return out


def format_timeline(windows: Sequence[TimelineWindow]) -> str:
    """The per-window table printed by ``repro load --timeline``."""
    if not windows:
        return "(empty timeline)"
    headers = (
        "window",
        "arrive",
        "start",
        "shed",
        "shed%",
        "queue",
        "running",
        "p50_start_ms",
        "p95_start_ms",
    )
    rows = [headers]
    for window in windows:
        rows.append(
            (
                f"{window.start_seconds:.2f}-{window.end_seconds:.2f}s",
                str(window.arrived),
                str(window.started),
                str(window.shed),
                f"{100.0 * window.shed_rate:.1f}",
                str(window.queue_depth),
                str(window.running),
                _fmt(window.p50_start_latency, 1e3),
                _fmt(window.p95_start_latency, 1e3),
            )
        )
    widths = [
        max(len(row[col]) for row in rows) for col in range(len(headers))
    ]
    lines = []
    for i, row in enumerate(rows):
        lines.append(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(value: float | None, scale: float = 1.0, digits: int = 3) -> str:
    if value is None:
        return "-"
    return f"{value * scale:.{digits}f}"


def format_load_table(points: Sequence[LoadPoint]) -> str:
    """The queueing-delay-vs-SSER summary table printed by ``repro load``."""
    headers = (
        "rate/s",
        "arrived",
        "admitted",
        "shed",
        "shed%",
        "mean_wait_ms",
        "p95_wait_ms",
        "p99_wait_ms",
        "sser",
        "slowdown",
    )
    rows = [headers]
    for point in points:
        result = point.result
        rows.append(
            (
                f"{point.rate_per_second:g}",
                str(result.arrived),
                str(result.admitted),
                str(result.shed),
                f"{100.0 * point.shed_rate:.1f}",
                _fmt(point.mean_wait, 1e3),
                _fmt(point.p95_wait, 1e3),
                _fmt(point.p99_wait, 1e3),
                f"{result.sser:.4e}",
                _fmt(result.mean_slowdown),
            )
        )
    widths = [
        max(len(row[col]) for row in rows) for col in range(len(headers))
    ]
    lines = []
    for i, row in enumerate(rows):
        lines.append(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
