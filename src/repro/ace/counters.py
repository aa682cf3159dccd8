"""ACE-bit counter architectures: what the scheduler's hardware reads.

The core models report exact per-structure ACE bit-cycles; a counter
architecture determines *which subset the scheduler can observe*:

* :data:`AceCounterMode.FULL` -- the baseline implementation counts
  all profiled structures (904 bytes/core).
* :data:`AceCounterMode.ROB_ONLY` -- the area-optimized
  implementation counts only the ROB on big cores (296 bytes/core);
  the paper shows ROB ABC is an excellent proxy for core ABC
  (correlation 0.99, Figure 5).  Small cores always report their full
  (cheap, 67-byte) measurement.

Schedulers base their decisions on :func:`counter_reading` (through
:func:`measured_abc` for a :class:`~repro.cores.base.QuantumResult`),
so the Figure 10 ROB-only ablation is a one-argument change.
"""

from __future__ import annotations

import enum
from typing import Sequence

from repro.config.structures import StructureKind
from repro.cores.base import QuantumResult


class AceCounterMode(enum.Enum):
    """Which counter implementation the scheduler reads."""

    FULL = "full"
    ROB_ONLY = "rob_only"


def counter_reading(
    total: float,
    structures: Sequence[StructureKind],
    ace: Sequence[float],
    mode: AceCounterMode,
    out_of_order: bool,
) -> float:
    """ACE bit-cycles the counter hardware reports for a slice.

    The small in-order core's 67-byte counter measures the pipeline
    latches (fetch-to-writeback), queues and functional units but not
    the register file (Section 4.2), so register-file ACE state is
    excluded from its reading regardless of the mode.

    Args:
        total: the slice's exact ACE bit-cycles over all structures.
        structures / ace: its per-structure ACE bit-cycles, as a
            column of keys and a column of values.
        mode: counter implementation.
        out_of_order: whether the measuring core is a big core (the
            ROB-only optimization only applies there).
    """
    if out_of_order:
        if mode == AceCounterMode.FULL:
            return total
        kind = StructureKind.ROB
    else:
        kind = StructureKind.REGISTER_FILE
    value = ace[structures.index(kind)] if kind in structures else 0.0
    return value if out_of_order else total - value


def measured_abc(
    result: QuantumResult, mode: AceCounterMode, out_of_order: bool
) -> float:
    """:func:`counter_reading` of a quantum's exact accounting."""
    ace = result.ace_bit_cycles
    return counter_reading(
        result.total_ace_bit_cycles, tuple(ace), tuple(ace.values()),
        mode, out_of_order,
    )


class SaturatingCounter:
    """A fixed-width saturating hardware counter.

    Models the paper's 12-bit per-ROB-entry timestamp counters and the
    32-bit per-structure accumulators: adding beyond the maximum
    clamps at the maximum (the hardware never wraps mid-quantum
    because the quantum is sized to fit, but the model enforces it).
    """

    def __init__(self, bits: int):
        if bits <= 0:
            raise ValueError("counter width must be positive")
        self.bits = bits
        self.max_value = (1 << bits) - 1
        self.value = 0

    def add(self, amount: int) -> None:
        if amount < 0:
            raise ValueError("counters only count up")
        self.value = min(self.value + amount, self.max_value)

    def set(self, value: int) -> None:
        if value < 0:
            raise ValueError("counter values are non-negative")
        self.value = min(value, self.max_value)

    def reset(self) -> None:
        self.value = 0

    @property
    def saturated(self) -> bool:
        return self.value == self.max_value
