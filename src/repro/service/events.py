"""Streaming JSONL event feed for the open-system service.

Every boundary decision of the :class:`~repro.service.server.OpenSystem`
-- arrive, shed, start, migrate, depart -- becomes one JSON line.  The
feed is the service's ground truth for differential testing: it
carries **virtual time only** (no wall clock, no pids, no worker
identity), keys are serialized sorted, and floats are produced by the
same arithmetic in every process, so the byte stream is identical
across repeated runs and whichever ``repro load --jobs`` worker runs
the point.

:func:`feed_digest` reduces a feed to one sha256 hex digest; CI pins
the seeded 1k-arrival smoke run against a committed digest.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, IO, Iterable

__all__ = ["EVENT_KINDS", "ServiceFeed", "feed_digest"]

#: Event kinds in lifecycle order.
EVENT_KINDS = ("arrive", "shed", "start", "migrate", "depart")


def _serialize(event: dict[str, Any]) -> str:
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def feed_digest(lines: Iterable[str]) -> str:
    """sha256 hex digest of a feed (one JSON line per event)."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


class ServiceFeed:
    """Ordered, deterministic event collector.

    Events are retained in memory (``events`` as dicts, ``lines`` as
    serialized JSON) and optionally streamed to a writable text
    ``stream`` as they happen, one line per event.
    """

    def __init__(self, stream: IO[str] | None = None):
        self.events: list[dict[str, Any]] = []
        self.lines: list[str] = []
        self._stream = stream

    def emit(self, kind: str, time_seconds: float, **fields: Any) -> dict:
        """Record one event at a virtual timestamp."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; known: {EVENT_KINDS}"
            )
        event = {"event": kind, "time": float(time_seconds), **fields}
        line = _serialize(event)
        self.events.append(event)
        self.lines.append(line)
        if self._stream is not None:
            self._stream.write(line)
            self._stream.write("\n")
            self._stream.flush()
        return event

    def digest(self) -> str:
        return feed_digest(self.lines)

    def counts(self) -> dict[str, int]:
        """Events per kind (zero-filled over all known kinds)."""
        out = {kind: 0 for kind in EVENT_KINDS}
        for event in self.events:
            out[event["event"]] += 1
        return out
