"""Hardware structure geometry used for ACE-bit accounting.

The sizes and bits-per-entry values reproduce Table 2 of the paper
(which in turn takes the bit counts from Nair et al., ISCA 2012).  A
structure is anything in the core that can hold architecturally
relevant (ACE) state: the reorder buffer, issue queue, load queue,
store queue, physical register file, functional units, and -- for the
in-order core -- the pipeline-stage latches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class StructureKind(enum.Enum):
    """The classes of ACE-relevant hardware structures we track."""

    ROB = "rob"
    ISSUE_QUEUE = "issue_queue"
    LOAD_QUEUE = "load_queue"
    STORE_QUEUE = "store_queue"
    REGISTER_FILE = "register_file"
    FUNCTIONAL_UNITS = "functional_units"
    PIPELINE_LATCHES = "pipeline_latches"

    # Members are singletons compared by identity, so the identity hash
    # is consistent with equality; it runs in C, while ``Enum.__hash__``
    # is a Python-level call on every per-structure dict access.  No
    # code iterates a set of members, so no order depends on it.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class StructureConfig:
    """Geometry of a single ACE-relevant structure.

    Attributes:
        kind: which structure this is.
        entries: number of entries (ROB slots, queue slots, registers,
            functional units, or pipeline-latch slots).
        bits_per_entry: bits of state per entry counted as potentially
            ACE when the entry holds a correct-path, non-NOP
            instruction.
    """

    kind: StructureKind
    entries: int
    bits_per_entry: int

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError(f"{self.kind}: entries must be positive")
        if self.bits_per_entry <= 0:
            raise ValueError(f"{self.kind}: bits_per_entry must be positive")

    @property
    def total_bits(self) -> int:
        """Total state bits in the structure (the AVF denominator share)."""
        return self.entries * self.bits_per_entry


@dataclass(frozen=True)
class RegisterFileConfig:
    """Physical register file geometry (split integer / floating point).

    The paper counts every architectural register as ACE all of the
    time and physical destination registers as ACE from instruction
    finish until commit.
    """

    int_registers: int
    int_bits: int
    fp_registers: int
    fp_bits: int
    arch_int_registers: int = 16
    arch_fp_registers: int = 16

    def __post_init__(self) -> None:
        if self.int_registers < self.arch_int_registers:
            raise ValueError("fewer physical than architectural int registers")
        if self.fp_registers < self.arch_fp_registers:
            raise ValueError("fewer physical than architectural fp registers")

    @property
    def total_bits(self) -> int:
        return self.int_registers * self.int_bits + self.fp_registers * self.fp_bits

    @property
    def arch_bits(self) -> int:
        """Bits of always-ACE architectural register state."""
        return (
            self.arch_int_registers * self.int_bits
            + self.arch_fp_registers * self.fp_bits
        )
