"""JSON serialization for simulation results.

Sweeps at paper scale take minutes; persisting
:class:`~repro.sim.results.RunResult` objects lets analyses and
reports run on stored results without re-simulation.

Writes are atomic (temp file + :func:`os.replace`) so concurrent
campaign workers sharing a cache directory never leave a partial file
behind, and reads raise :class:`ResultCacheError` on anything
unreadable so callers can treat corrupt entries as cache misses.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any

from repro.sim.results import AppRunRecord, RunResult, TimelinePoint

#: Format marker embedded in every serialized result.
FORMAT_VERSION = 1


class ResultCacheError(ValueError):
    """A stored result could not be read back (missing, truncated,
    corrupt JSON, wrong format version, or malformed fields)."""


#: Field names per dataclass, in definition order (read by shallow_dict).
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def shallow_dict(obj: Any) -> dict[str, Any]:
    """A dataclass instance's fields as a new dict, in definition order.

    :func:`dataclasses.asdict` without its recursive copy: a field
    holding a dict, list or tuple puts that same object in the dict.
    ``json.dumps`` writes the same bytes for either form as long as no
    field holds a dataclass, which holds for every result, spec and
    event this encodes.  The field names are read once per class.
    """
    cls = type(obj)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(
            f.name for f in dataclasses.fields(cls)
        )
    return {name: getattr(obj, name) for name in names}


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically.

    The temp name embeds the PID so concurrent writers in different
    worker processes never collide; ``os.replace`` makes the final
    rename atomic, so readers see either the old file or the new one,
    never a partial write.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def run_result_to_dict(result: RunResult) -> dict[str, Any]:
    """Convert a run result to plain JSON-serializable data."""
    return {
        "format_version": FORMAT_VERSION,
        "machine_name": result.machine_name,
        "scheduler_name": result.scheduler_name,
        "quanta": result.quanta,
        "duration_seconds": result.duration_seconds,
        "apps": [shallow_dict(app) for app in result.apps],
        "timeline": [shallow_dict(p) for p in result.timeline],
    }


def run_result_from_dict(data: dict[str, Any]) -> RunResult:
    """Rebuild a run result from serialized data."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ResultCacheError(
            f"unsupported result format {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        apps = [AppRunRecord(**app) for app in data["apps"]]
        timeline = [TimelinePoint(**p) for p in data.get("timeline", [])]
        return RunResult(
            machine_name=data["machine_name"],
            scheduler_name=data["scheduler_name"],
            quanta=data["quanta"],
            duration_seconds=data["duration_seconds"],
            apps=apps,
            timeline=timeline,
        )
    except (KeyError, TypeError) as error:
        raise ResultCacheError(f"malformed result data: {error}") from error


def save_run(result: RunResult, path: str | Path) -> Path:
    """Write a run result to a JSON file (atomically)."""
    return save_run_dict(run_result_to_dict(result), path)


def save_run_dict(data: dict[str, Any], path: str | Path) -> Path:
    """Write a result already in :func:`run_result_to_dict` form, with
    the bytes :func:`save_run` writes (atomically)."""
    path = Path(path)
    _atomic_write_text(path, json.dumps(data, indent=1))
    return path


def load_run(path: str | Path) -> RunResult:
    """Read a run result from a JSON file.

    Raises:
        ResultCacheError: if the file is missing, not valid JSON, or
            does not hold a result in the current format.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ResultCacheError(
            f"unreadable result file {path}: {error}"
        ) from error
    return run_result_from_dict(data)
