"""Trace-context propagation across the fleet.

A :class:`TraceContext` identifies *where an event came from* in a
campaign: the campaign id (a stable digest of the planned ``RunSpec``
keys, so resumes of the same campaign share it), the slot of the
engine worker that ran the job (``shard``; absent for a job run
in-process), the content key of the run being executed, and the
innermost active span when the event was emitted.

The context travels two ways:

* **ambient** -- a module-level :data:`ACTIVE` installed with
  :func:`activate`, read with :func:`current`.  Like the metrics
  registry, the disabled cost is one global load and comparison.
* **on events** -- the runtime engine stamps every emitted event with
  ``trace`` (see :mod:`repro.runtime.events`); campaign and fleet
  logs are then filterable by campaign, worker slot, or run key.

Contexts are plain frozen dataclasses serialising to flat string/int
dicts, so they cross the sorted-key JSON framing unchanged.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Iterator, Mapping, Sequence

__all__ = [
    "ACTIVE",
    "TraceContext",
    "activate",
    "campaign_id",
    "current",
]


def campaign_id(keys: Sequence[str]) -> str:
    """Stable campaign identity: a digest of the planned run keys.

    Depends only on spec content (the same sha256 keys the
    ``ResultStore`` uses), so a resumed or re-sharded campaign keeps
    the id of its first execution.
    """
    digest = hashlib.sha256()
    for key in keys:
        digest.update(key.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()[:12]


@dataclass(frozen=True)
class TraceContext:
    """Correlation coordinates for one emitted event or message."""

    campaign: str
    shard: int | None = None
    run_key: str | None = None
    parent: str | None = None

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"campaign": self.campaign}
        if self.shard is not None:
            data["shard"] = self.shard
        if self.run_key is not None:
            data["run_key"] = self.run_key
        if self.parent is not None:
            data["parent"] = self.parent
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceContext":
        return cls(
            campaign=str(data["campaign"]),
            shard=(
                int(data["shard"]) if data.get("shard") is not None else None
            ),
            run_key=(
                str(data["run_key"])
                if data.get("run_key") is not None
                else None
            ),
            parent=(
                str(data["parent"])
                if data.get("parent") is not None
                else None
            ),
        )

    def with_run(self, run_key: str | None) -> "TraceContext":
        return replace(self, run_key=run_key)

    def with_parent(self, parent: str | None) -> "TraceContext":
        return replace(self, parent=parent)


ACTIVE: TraceContext | None = None


def current() -> TraceContext | None:
    """The ambient trace context, or ``None`` when tracing is off."""
    return ACTIVE


@contextmanager
def activate(context: TraceContext | None) -> Iterator[TraceContext | None]:
    """Install ``context`` as the ambient trace context for a scope."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = context
    try:
        yield context
    finally:
        ACTIVE = previous
