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


#: Encodes every feed line: one encoder, where ``json.dumps`` with
#: these options builds one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def feed_digest(lines: Iterable[str]) -> str:
    """sha256 hex digest of a feed (one JSON line per event)."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


class ServiceFeed:
    """Ordered, deterministic event collector.

    Each event is retained once, as its serialized JSON line in
    ``lines`` (``events`` decodes them on read), and optionally
    streamed to a writable text ``stream`` as it happens, one line per
    event.
    """

    def __init__(self, stream: IO[str] | None = None):
        self.lines: list[str] = []
        self._stream = stream

    @property
    def events(self) -> list[dict[str, Any]]:
        """The events as dicts, decoded from ``lines``."""
        return [json.loads(line) for line in self.lines]

    def emit(self, kind: str, time_seconds: float, **fields: Any) -> None:
        """Record one event at a virtual timestamp."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; known: {EVENT_KINDS}"
            )
        event = {"event": kind, "time": float(time_seconds), **fields}
        line = _ENCODER.encode(event)
        self.lines.append(line)
        if self._stream is not None:
            self._stream.write(line)
            self._stream.write("\n")
            self._stream.flush()

    def digest(self) -> str:
        return feed_digest(self.lines)

    def counts(self) -> dict[str, int]:
        """Events per kind (zero-filled over all known kinds)."""
        out = {kind: 0 for kind in EVENT_KINDS}
        for event in self.events:
            out[event["event"]] += 1
        return out
