"""Process-local metrics registry: counters, gauges, histograms, timers.

Design goals, in priority order:

1. **Near-zero overhead when disabled.**  Instrumentation sites read the
   module-level :data:`ACTIVE` registry and bail out on ``None``; that is
   one global load and one comparison per site.  Nothing is allocated
   and no string formatting happens unless a registry is installed.
2. **Mergeable snapshots.**  A registry serialises to a plain-JSON
   snapshot, and snapshots merge commutatively (counters add, histogram
   buckets add element-wise, gauges take the max), so per-worker metrics
   collected inside the engine's worker processes can be shipped back to
   the parent and folded into one campaign-wide view in any completion
   order.  Serial and parallel campaigns therefore merge to *identical*
   totals (pinned by ``tests/test_obs_merge.py``).
3. **Labeled series.**  A series is identified by its name plus a small
   set of key/value labels (``counter("sched.swaps", outcome="accepted")``).
   Labels are expected to be low-cardinality (core type, scheduler name,
   cache level) -- every distinct label set is a distinct series.

The registry is *process-local and single-threaded* by design: the
simulator is CPU-bound pure Python/numpy and parallelism happens at the
process level, so no locks are needed.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterable, Iterator, Mapping

__all__ = [
    "ACTIVE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RegistrySnapshot",
    "Timer",
    "active",
    "collecting",
    "disable",
    "enable",
    "write_csv",
]

# Exponential bucket boundaries shared by every histogram/timer: powers
# of four from 4^-10 (~1 microsecond when observing seconds) to 4^10
# (~1e6).  21 boundaries -> 22 buckets; bucket i counts observations in
# (boundary[i-1], boundary[i]].
BUCKET_BOUNDARIES: tuple[float, ...] = tuple(4.0 ** i for i in range(-10, 11))

LabelItems = tuple[tuple[str, str], ...]
SeriesKey = tuple[str, LabelItems]


def _label_items(labels: Mapping[str, Any]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing sum."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def to_data(self) -> dict[str, Any]:
        return {"value": self.value}

    def merge_data(self, data: Mapping[str, Any]) -> None:
        self.value += float(data["value"])


class Gauge:
    """Last-set value.  Merges by taking the maximum so the result is
    independent of worker completion order."""

    kind = "gauge"
    __slots__ = ("value", "set_count")

    def __init__(self) -> None:
        self.value = 0.0
        self.set_count = 0

    def set(self, value: float) -> None:
        self.value = value
        self.set_count += 1

    def to_data(self) -> dict[str, Any]:
        return {"value": self.value, "set_count": self.set_count}

    def merge_data(self, data: Mapping[str, Any]) -> None:
        other = float(data["value"])
        count = int(data.get("set_count", 1))
        if count > 0:
            self.value = other if self.set_count == 0 else max(self.value, other)
            self.set_count += count


class Histogram:
    """Count/sum/min/max plus fixed exponential buckets."""

    kind = "histogram"
    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets = [0] * (len(BUCKET_BOUNDARIES) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        lo, hi = 0, len(BUCKET_BOUNDARIES)
        while lo < hi:  # first boundary >= value
            mid = (lo + hi) // 2
            if BUCKET_BOUNDARIES[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.buckets[lo] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_data(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "buckets": list(self.buckets),
        }

    def merge_data(self, data: Mapping[str, Any]) -> None:
        count = int(data["count"])
        if count == 0:
            return
        self.count += count
        self.total += float(data["total"])
        self.min = min(self.min, float(data["min"]))
        self.max = max(self.max, float(data["max"]))
        for i, n in enumerate(data["buckets"]):
            self.buckets[i] += int(n)


class Timer(Histogram):
    """A histogram of seconds usable as a context manager::

        with registry.timer("runtime.job_seconds"):
            run_workload(...)
    """

    kind = "timer"
    __slots__ = ("_start",)

    def __enter__(self) -> "Timer":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.observe(perf_counter() - self._start)


_SERIES_TYPES = {cls.kind: cls for cls in (Counter, Gauge, Histogram, Timer)}


@dataclass
class RegistrySnapshot:
    """JSON-able, mergeable view of a registry at one point in time.

    ``series`` maps ``(name, label_items)`` to ``(kind, data)`` where
    ``data`` is the plain-dict payload of the series type.
    """

    series: dict[SeriesKey, tuple[str, dict[str, Any]]] = field(
        default_factory=dict
    )

    def to_dict(self) -> dict[str, Any]:
        return {
            "series": [
                {
                    "name": name,
                    "labels": dict(labels),
                    "kind": kind,
                    "data": data,
                }
                for (name, labels), (kind, data) in sorted(self.series.items())
            ]
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RegistrySnapshot":
        series: dict[SeriesKey, tuple[str, dict[str, Any]]] = {}
        for entry in data.get("series", ()):
            key = (str(entry["name"]), _label_items(entry.get("labels", {})))
            series[key] = (str(entry["kind"]), dict(entry["data"]))
        return cls(series=series)

    def rows(self) -> list[tuple[str, str, str, str, str]]:
        """(series, kind, count, total, mean-or-value) display rows."""
        out = []
        for (name, labels), (kind, data) in sorted(self.series.items()):
            shown = name
            if labels:
                shown += "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
            if kind in ("histogram", "timer"):
                count = int(data["count"])
                total = float(data["total"])
                mean = total / count if count else 0.0
                out.append((shown, kind, str(count), f"{total:.6g}",
                            f"{mean:.6g}"))
            elif kind == "gauge":
                out.append((shown, kind, str(int(data.get("set_count", 1))),
                            f"{float(data['value']):.6g}",
                            f"{float(data['value']):.6g}"))
            else:
                out.append((shown, kind, "", f"{float(data['value']):.6g}",
                            ""))
        return out


class MetricsRegistry:
    """Holds labeled series; hands out live series objects on demand."""

    def __init__(self) -> None:
        self._series: dict[SeriesKey, Any] = {}

    def _get(self, cls: type, name: str, labels: Mapping[str, Any]) -> Any:
        key = (name, _label_items(labels))
        series = self._series.get(key)
        if series is None:
            series = cls()
            self._series[key] = series
        elif not isinstance(series, cls) and not (
            cls is Histogram and isinstance(series, Timer)
        ):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(series).kind}, not {cls.kind}"
            )
        return series

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    def timer(self, name: str, **labels: Any) -> Timer:
        return self._get(Timer, name, labels)

    def __len__(self) -> int:
        return len(self._series)

    def snapshot(self) -> RegistrySnapshot:
        return RegistrySnapshot(
            series={
                key: (series.kind, series.to_data())
                for key, series in self._series.items()
            }
        )

    def merge(self, snapshot: RegistrySnapshot | Mapping[str, Any]) -> None:
        """Fold a snapshot (or its ``to_dict`` form) into this registry."""
        if not isinstance(snapshot, RegistrySnapshot):
            snapshot = RegistrySnapshot.from_dict(snapshot)
        for (name, labels), (kind, data) in snapshot.series.items():
            cls = _SERIES_TYPES.get(kind)
            if cls is None:  # forward compat: skip unknown series kinds
                continue
            series = self._get(cls, name, dict(labels))
            series.merge_data(data)


def merge_snapshots(
    snapshots: "Iterable[RegistrySnapshot | Mapping[str, Any] | None]",
) -> RegistrySnapshot:
    """Fold snapshots (or their ``to_dict`` forms) into one.

    The merge is commutative and associative -- counters add,
    histograms add bucket-wise, gauges keep their extrema -- so fleet
    totals folded from per-shard snapshots are independent of shard
    count and completion order.  ``None`` entries are skipped, letting
    callers pass per-shard values straight through.
    """
    registry = MetricsRegistry()
    for snapshot in snapshots:
        if snapshot is not None:
            registry.merge(snapshot)
    return registry.snapshot()


# ---------------------------------------------------------------------------
# Module-level activation.  ``ACTIVE is None`` means metrics are off and
# every instrumentation site short-circuits.
# ---------------------------------------------------------------------------

ACTIVE: MetricsRegistry | None = None


def active() -> MetricsRegistry | None:
    return ACTIVE


def enable(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install (and return) the process-wide registry."""
    global ACTIVE
    ACTIVE = registry if registry is not None else MetricsRegistry()
    return ACTIVE


def disable() -> MetricsRegistry | None:
    """Remove the process-wide registry; returns the one removed."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = None
    return previous


@contextmanager
def collecting(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Temporarily install a (fresh by default) registry::

        with metrics.collecting() as reg:
            run_workload(...)
        snapshot = reg.snapshot()
    """
    global ACTIVE
    previous = ACTIVE
    ACTIVE = registry if registry is not None else MetricsRegistry()
    try:
        yield ACTIVE
    finally:
        ACTIVE = previous


def write_csv(snapshot: RegistrySnapshot, path: str) -> None:
    """Flat CSV export: one row per series field.

    Histogram/timer buckets get one row per non-empty bucket
    (``bucket_le_<boundary>`` with the bucket's count, ``bucket_le_inf``
    for the overflow bucket) so spreadsheet tools can plot
    distributions directly instead of parsing a joined blob.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", "labels", "kind", "field", "value"])
        for (name, labels), (kind, data) in sorted(snapshot.series.items()):
            label_text = ";".join(f"{k}={v}" for k, v in labels)
            for field_name, value in data.items():
                if field_name == "buckets":
                    continue
                writer.writerow([name, label_text, kind, field_name, value])
            for i, count in enumerate(data.get("buckets", ())):
                if not count:
                    continue
                upper = (
                    f"bucket_le_{BUCKET_BOUNDARIES[i]:g}"
                    if i < len(BUCKET_BOUNDARIES)
                    else "bucket_le_inf"
                )
                writer.writerow([name, label_text, kind, upper, count])
