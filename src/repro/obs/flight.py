"""Crash flight recorder: a bounded ring of recent worker activity.

A :class:`FlightRecorder` keeps the last-N things a worker did -- the
campaign events it emitted, window-level notes from the kernel hot
paths, counter deltas since the recorder armed, and (at dump time) the
active span stack -- so that when a job fails or times out, the runtime
engine can write a *postmortem bundle* under the ``ResultStore``
answering "what was this job doing when it died".

Activation follows the :mod:`repro.obs.metrics` pattern: sites read the
module-level :data:`ACTIVE` and bail out on ``None``, so the dormant
cost is one global load and one comparison per site (gated by the
``span_overhead`` section of ``repro bench`` on both kernel paths).

Bundles live in ``<store>/postmortems/<key>.json`` -- a subdirectory,
so :meth:`ResultStore.digest` (which globs ``*.json`` non-recursively)
is untouched and store byte-identity contracts survive.  They are
rendered by ``repro postmortem``.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.obs import context as obs_context
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing

__all__ = [
    "ACTIVE",
    "BUNDLE_SCHEMA_VERSION",
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "POSTMORTEM_DIR",
    "disable",
    "dump_bundle",
    "enable",
    "find_bundles",
    "format_bundle",
    "load_bundle",
    "recording",
]

#: Ring capacity when the engine arms a recorder without an override.
DEFAULT_CAPACITY = 64

#: Subdirectory of the ResultStore holding postmortem bundles.
POSTMORTEM_DIR = "postmortems"

BUNDLE_SCHEMA_VERSION = 1


class FlightRecorder:
    """Bounded ring buffer of recent events and hot-path notes."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        fingerprint: Mapping[str, Any] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.fingerprint = dict(fingerprint or {})
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._dropped = 0
        self._baseline: dict[str, float] = {}

    # -- feeding ---------------------------------------------------------

    def record(self, entry: Mapping[str, Any]) -> None:
        """Append one entry (an event dict, or a note) to the ring."""
        if len(self._ring) == self.capacity:
            self._dropped += 1
        self._ring.append(dict(entry))

    def note(self, what: str, **attrs: Any) -> None:
        """Record a lightweight hot-path note (e.g. one kernel window)."""
        entry: dict[str, Any] = {"note": what, "timestamp": time.time()}
        entry.update(attrs)
        self.record(entry)

    # -- metric deltas ---------------------------------------------------

    def mark_metrics_baseline(self) -> None:
        """Remember current counter values; deltas are relative to this."""
        self._baseline = _counter_values(obs_metrics.ACTIVE)

    def metric_deltas(self) -> dict[str, float]:
        """Counter increments since the baseline (all counters if none)."""
        current = _counter_values(obs_metrics.ACTIVE)
        deltas = {}
        for key, value in current.items():
            delta = value - self._baseline.get(key, 0.0)
            if delta:
                deltas[key] = delta
        return deltas

    # -- dumping ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        tracer = obs_tracing.ACTIVE
        span_stack = (
            [node.label for node in tracer._stack[1:]]
            if tracer is not None
            else []
        )
        return {
            "capacity": self.capacity,
            "dropped": self._dropped,
            "events": list(self._ring),
            "metric_deltas": self.metric_deltas(),
            "span_stack": span_stack,
            "fingerprint": dict(self.fingerprint),
        }


def _counter_values(
    registry: "obs_metrics.MetricsRegistry | None",
) -> dict[str, float]:
    if registry is None:
        return {}
    values: dict[str, float] = {}
    for (name, labels), (kind, data) in registry.snapshot().series.items():
        if kind != "counter":
            continue
        shown = name
        if labels:
            shown += "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
        values[shown] = float(data["value"])
    return values


# ---------------------------------------------------------------------------
# Module-level activation.  ``ACTIVE is None`` means the recorder is off
# and every instrumentation site short-circuits.
# ---------------------------------------------------------------------------

ACTIVE: FlightRecorder | None = None


def enable(recorder: FlightRecorder | None = None) -> FlightRecorder:
    global ACTIVE
    ACTIVE = recorder if recorder is not None else FlightRecorder()
    return ACTIVE


def disable() -> FlightRecorder | None:
    global ACTIVE
    previous = ACTIVE
    ACTIVE = None
    return previous


@contextmanager
def recording(
    recorder: FlightRecorder | None = None,
) -> Iterator[FlightRecorder]:
    """Temporarily install a (fresh by default) recorder."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = recorder if recorder is not None else FlightRecorder()
    try:
        yield ACTIVE
    finally:
        ACTIVE = previous


# ---------------------------------------------------------------------------
# Postmortem bundles
# ---------------------------------------------------------------------------


def dump_bundle(
    store_directory: str | Path,
    key: str,
    *,
    label: str = "",
    reason: str = "failed",
    error: str = "",
    trace: "obs_context.TraceContext | None" = None,
    recorder: FlightRecorder | None = None,
) -> Path:
    """Write one postmortem bundle; returns its path.

    ``recorder`` defaults to the ambient :data:`ACTIVE`; with neither,
    the bundle still records the failure facts with an empty ring.
    """
    if recorder is None:
        recorder = ACTIVE
    if trace is None:
        trace = obs_context.current()
    flight = (
        recorder.snapshot()
        if recorder is not None
        else FlightRecorder(1).snapshot()
    )
    bundle: dict[str, Any] = {
        "schema": BUNDLE_SCHEMA_VERSION,
        "key": key,
        "label": label,
        "reason": reason,
        "error": error,
        "trace": trace.to_dict() if trace is not None else None,
        "written_at": time.time(),
        "flight": flight,
    }
    directory = Path(store_directory) / POSTMORTEM_DIR
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{key}.json"
    tmp = path.with_suffix(".json.tmp")
    with open(tmp, "w") as handle:
        json.dump(bundle, handle, indent=2, sort_keys=True)
        handle.write("\n")
    tmp.replace(path)
    return path


def load_bundle(path: str | Path) -> dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def find_bundles(store_directory: str | Path) -> list[Path]:
    """All bundle paths under a store, sorted by key."""
    directory = Path(store_directory) / POSTMORTEM_DIR
    if not directory.is_dir():
        return []
    return sorted(directory.glob("*.json"))


def format_bundle(bundle: Mapping[str, Any]) -> str:
    """Human-readable rendering for ``repro postmortem``."""
    lines = [
        f"postmortem {bundle.get('key', '?')}",
        f"  label:  {bundle.get('label') or '-'}",
        f"  reason: {bundle.get('reason', '?')}",
    ]
    error = bundle.get("error")
    if error:
        lines.append(f"  error:  {error}")
    trace = bundle.get("trace")
    if trace:
        parts = [f"campaign={trace.get('campaign', '?')}"]
        if trace.get("shard") is not None:
            parts.append(f"shard={trace['shard']}")
        if trace.get("run_key"):
            parts.append(f"run_key={trace['run_key'][:12]}")
        if trace.get("parent"):
            parts.append(f"parent={trace['parent']}")
        lines.append("  trace:  " + " ".join(parts))
    flight = bundle.get("flight", {})
    fingerprint = flight.get("fingerprint") or {}
    if fingerprint:
        shown = ", ".join(f"{k}={v}" for k, v in sorted(fingerprint.items()))
        lines.append(f"  config: {shown}")
    stack = flight.get("span_stack") or []
    lines.append(
        "  active spans: " + (" > ".join(stack) if stack else "(none)")
    )
    deltas = flight.get("metric_deltas") or {}
    if deltas:
        lines.append("  metric deltas:")
        for name in sorted(deltas):
            lines.append(f"    {name:<40s} +{deltas[name]:g}")
    events = flight.get("events") or []
    dropped = int(flight.get("dropped", 0))
    header = f"  last {len(events)} entries"
    if dropped:
        header += f" ({dropped} older dropped)"
    lines.append(header + ":")
    for entry in events:
        lines.append("    " + _format_entry(entry))
    return "\n".join(lines)


#: Attribute values longer than this are elided in the text rendering;
#: the JSON bundle itself keeps full fidelity.
_ATTR_LIMIT = 60


def _clip(value: Any) -> str:
    text = str(value)
    if len(text) <= _ATTR_LIMIT:
        return text
    return text[: _ATTR_LIMIT - 12] + f"...<{len(text)} chars>"


def _format_entry(entry: Mapping[str, Any]) -> str:
    stamp = entry.get("timestamp")
    prefix = f"[{stamp:.3f}] " if isinstance(stamp, (int, float)) else ""
    if "note" in entry:
        attrs = ", ".join(
            f"{k}={_clip(v)}"
            for k, v in sorted(entry.items())
            if k not in ("note", "timestamp")
        )
        return f"{prefix}note {entry['note']}" + (
            f" ({attrs})" if attrs else ""
        )
    kind = entry.get("event", "?")
    attrs = ", ".join(
        f"{k}={_clip(v)}"
        for k, v in sorted(entry.items())
        if k not in ("event", "timestamp", "trace")
    )
    return f"{prefix}{kind}" + (f" ({attrs})" if attrs else "")
