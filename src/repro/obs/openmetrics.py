"""OpenMetrics text exposition of metrics and fleet status.

Renders a :class:`~repro.obs.metrics.RegistrySnapshot` (plus an
optional fleet-status dict from
:meth:`~repro.runtime.shard.FleetStatus.snapshot`) into the
OpenMetrics text format, so standard scrapers can consume the same
totals the repo's own tooling prints:

* counters  -> ``<name>_total``
* gauges    -> ``<name>``
* histograms/timers -> cumulative ``<name>_bucket{le="..."}`` plus
  ``<name>_sum`` / ``<name>_count``

Rendering is **deterministic**: series sort by sanitized name then
labels, floats format with ``repr``-stable ``%g``-style formatting, and
the exposition ends with ``# EOF``.  That determinism is what lets CI
compare `repro stats --openmetrics` output byte-for-byte between two
renderings of the same fleet log.

A minimal scrape parser (:func:`parse_exposition`) ships alongside the
renderer for the round-trip tests and `repro top`; it handles exactly
the subset the renderer emits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.obs.metrics import BUCKET_BOUNDARIES, RegistrySnapshot

__all__ = [
    "Exposition",
    "counter_totals",
    "parse_exposition",
    "render_fleet",
    "render_snapshot",
    "sanitize_name",
]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def sanitize_name(name: str) -> str:
    """Map a dotted metric name onto the OpenMetrics charset."""
    out = _BAD_CHARS.sub("_", name)
    if not out or not _NAME_OK.match(out):
        out = "_" + out
    return out


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels_text(labels: Mapping[str, Any] | None, **extra: str) -> str:
    items = [(str(k), str(v)) for k, v in (labels or {}).items()]
    items += [(k, v) for k, v in extra.items()]
    if not items:
        return ""
    items.sort()
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + body + "}"


def render_snapshot(
    snapshot: RegistrySnapshot | Mapping[str, Any] | None,
    *,
    fleet: Mapping[str, Any] | None = None,
    prefix: str = "repro_",
    eof: bool = True,
) -> str:
    """Render a snapshot (and optional fleet status) as OpenMetrics."""
    if snapshot is not None and not isinstance(snapshot, RegistrySnapshot):
        snapshot = RegistrySnapshot.from_dict(snapshot)
    lines: list[str] = []
    families: dict[str, list[tuple[tuple, str, dict]]] = {}
    if snapshot is not None:
        for (name, labels), (kind, data) in snapshot.series.items():
            family = prefix + sanitize_name(name)
            families.setdefault(family, []).append((labels, kind, data))
    for family in sorted(families):
        series = sorted(families[family], key=lambda item: item[0])
        kind = series[0][1]
        om_type = {
            "counter": "counter",
            "gauge": "gauge",
            "histogram": "histogram",
            "timer": "histogram",
        }.get(kind, "unknown")
        lines.append(f"# TYPE {family} {om_type}")
        for labels, kind, data in series:
            label_map = dict(labels)
            if kind == "counter":
                lines.append(
                    f"{family}_total{_labels_text(label_map)} "
                    f"{_format_value(float(data['value']))}"
                )
            elif kind == "gauge":
                lines.append(
                    f"{family}{_labels_text(label_map)} "
                    f"{_format_value(float(data['value']))}"
                )
            else:
                cumulative = 0
                buckets = list(data.get("buckets", ()))
                for i, count in enumerate(buckets):
                    cumulative += int(count)
                    le = (
                        _format_value(BUCKET_BOUNDARIES[i])
                        if i < len(BUCKET_BOUNDARIES)
                        else "+Inf"
                    )
                    lines.append(
                        f"{family}_bucket"
                        f"{_labels_text(label_map, le=le)} {cumulative}"
                    )
                lines.append(
                    f"{family}_sum{_labels_text(label_map)} "
                    f"{_format_value(float(data['total']))}"
                )
                lines.append(
                    f"{family}_count{_labels_text(label_map)} "
                    f"{int(data['count'])}"
                )
    if fleet is not None:
        lines.extend(render_fleet(fleet, prefix=prefix).splitlines())
    if eof:
        lines.append("# EOF")
    return "\n".join(lines) + "\n"


def render_fleet(fleet: Mapping[str, Any], *, prefix: str = "repro_") -> str:
    """Gauges for one `FleetStatus.snapshot()` dict (no ``# EOF``)."""
    lines: list[str] = []
    scalar_names = (
        "total",
        "done",
        "failed",
        "cached",
        "queued",
        "elapsed_seconds",
        "runs_per_s",
        "eta_seconds",
    )
    for name in scalar_names:
        value = fleet.get(name)
        if value is None:
            continue
        family = f"{prefix}fleet_{name}"
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"{family} {_format_value(float(value))}")
    shards = fleet.get("shards") or ()
    shard_fields = ("total", "done", "failed", "cached", "finished")
    present = [
        name
        for name in shard_fields
        if any(name in shard for shard in shards)
    ]
    for name in present:
        family = f"{prefix}fleet_shard_{name}"
        lines.append(f"# TYPE {family} gauge")
        for index, shard in enumerate(shards):
            if name not in shard:
                continue
            value = shard[name]
            labels = _labels_text(None, shard=str(shard.get("shard", index)))
            lines.append(f"{family}{labels} {_format_value(float(value))}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Minimal scrape parser (round-trip tests, `repro top`)
# ---------------------------------------------------------------------------

LabelItems = tuple[tuple[str, str], ...]


@dataclass
class Exposition:
    """Parsed form of one OpenMetrics text exposition."""

    families: dict[str, str] = field(default_factory=dict)
    samples: dict[tuple[str, LabelItems], float] = field(
        default_factory=dict
    )
    saw_eof: bool = False

    def value(self, name: str, **labels: Any) -> float | None:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self.samples.get(key)


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def parse_exposition(text: str) -> Exposition:
    """Parse the subset of OpenMetrics that :func:`render_snapshot`
    emits; raises ``ValueError`` on lines it cannot understand."""
    out = Exposition()
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line == "# EOF":
            out.saw_eof = True
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            out.families[name] = kind.strip()
            continue
        if line.startswith("#"):
            continue  # HELP/UNIT and other comments
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"unparseable OpenMetrics line: {raw!r}")
        labels_text = match.group("labels") or ""
        labels = tuple(
            sorted(
                (key, value.replace('\\"', '"')
                 .replace("\\n", "\n").replace("\\\\", "\\"))
                for key, value in _LABEL.findall(labels_text)
            )
        )
        key = (match.group("name"), labels)
        out.samples[key] = _parse_value(match.group("value"))
    return out


def counter_totals(
    exposition: Exposition, *, prefix: str = "repro_"
) -> dict[tuple[str, LabelItems], float]:
    """All ``_total`` samples of counter families, prefix stripped."""
    totals: dict[tuple[str, LabelItems], float] = {}
    counter_families = {
        name for name, kind in exposition.families.items()
        if kind == "counter"
    }
    for (name, labels), value in exposition.samples.items():
        if not name.endswith("_total"):
            continue
        family = name[: -len("_total")]
        if family not in counter_families:
            continue
        if family.startswith(prefix):
            family = family[len(prefix):]
        totals[(family, labels)] = value
    return totals
