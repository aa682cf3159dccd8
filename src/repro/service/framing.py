"""Line framing shared by the scheduler service and the fleet status socket.

Both ``repro serve`` (the open-system scheduler service) and the
status socket of ``repro sweep --status-socket`` (read by
``repro top``) speak the same wire format: **newline-delimited JSON
objects**, one message per line, keys sorted so identical messages
are identical bytes.  This module is the single definition of that
framing so the two protocols cannot drift apart.
"""

from __future__ import annotations

import json
from typing import Any, Mapping


class FramingError(ValueError):
    """A line on the wire was not a well-formed protocol message."""


def encode_line(message: Mapping[str, Any]) -> str:
    """Serialize one protocol message to its canonical line (no
    trailing newline).  Keys are sorted so equal messages are equal
    bytes -- the property the service's digest-checked feeds rely
    on."""
    return json.dumps(dict(message), sort_keys=True)


def decode_line(line: str) -> dict[str, Any]:
    """Parse one wire line into a message dict.

    Raises :class:`FramingError` with the exact error texts the
    scheduler service has always returned, so refactored callers stay
    byte-compatible with existing clients.
    """
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FramingError(f"bad json: {exc}") from exc
    if not isinstance(message, dict):
        raise FramingError("request must be an object")
    return message
