"""Workload characteristics: the statistical description of a benchmark.

The reproduction replaces SPEC CPU2006 SimPoints with synthetic
benchmark profiles.  A :class:`BenchmarkProfile` is a sequence of
phases; each :class:`PhaseCharacteristics` captures the statistics that
determine performance and vulnerability on either core type:
instruction mix, dependency behaviour (ILP), front-end miss rates
(branch mispredictions, I-cache misses), data-cache miss rates at each
level, memory-level parallelism, and how strongly branch resolution
depends on in-flight load misses (which governs how much *wrong-path,
un-ACE* state sits in the ROB underneath memory stalls -- the
mcf/libquantum effect in Section 2.3).

Both the mechanistic core model (`repro.cores.mechanistic`) and the
synthetic trace generator (`repro.workloads.generator`) consume the
same characteristics, which keeps the two modelling levels consistent.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace

from repro.isa.instruction import EXECUTION_LATENCY, InstructionClass


@dataclass(frozen=True)
class InstructionMix:
    """Per-class dynamic instruction fractions (must sum to 1)."""

    nop: float = 0.02
    int_alu: float = 0.40
    int_mul: float = 0.01
    int_div: float = 0.0
    fp_add: float = 0.0
    fp_mul: float = 0.0
    fp_div: float = 0.0
    load: float = 0.25
    store: float = 0.12
    branch: float = 0.20

    def __post_init__(self) -> None:
        total = sum(self.as_dict().values())
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            raise ValueError(f"instruction mix sums to {total}, expected 1.0")
        if any(f < 0 for f in self.as_dict().values()):
            raise ValueError("instruction mix fractions must be non-negative")

    def as_dict(self) -> dict[InstructionClass, float]:
        return {
            InstructionClass.NOP: self.nop,
            InstructionClass.INT_ALU: self.int_alu,
            InstructionClass.INT_MUL: self.int_mul,
            InstructionClass.INT_DIV: self.int_div,
            InstructionClass.FP_ADD: self.fp_add,
            InstructionClass.FP_MUL: self.fp_mul,
            InstructionClass.FP_DIV: self.fp_div,
            InstructionClass.LOAD: self.load,
            InstructionClass.STORE: self.store,
            InstructionClass.BRANCH: self.branch,
        }

    @property
    def memory_fraction(self) -> float:
        return self.load + self.store

    @property
    def fp_fraction(self) -> float:
        return self.fp_add + self.fp_mul + self.fp_div

    def average_execution_latency(self) -> float:
        """Mean non-memory execution latency over the mix (cycles)."""
        return sum(
            frac * EXECUTION_LATENCY[cls] for cls, frac in self.as_dict().items()
        )


@dataclass(frozen=True)
class PhaseCharacteristics:
    """Statistics of one execution phase of a benchmark.

    Attributes:
        mix: dynamic instruction mix.
        dep_distance_mean: mean backward register-dependency distance
            (geometrically distributed in the trace generator).  Larger
            means more independent instructions, hence more ILP.
        branch_mpki: branch *mispredictions* per kilo-instruction.
        icache_mpki: L1-I misses per kilo-instruction.
        l1d_mpki: L1-D misses per kilo-instruction (serviced by L2).
        l2_mpki: L2 misses per kilo-instruction (serviced by L3).
        l3_mpki: L3 misses per kilo-instruction at the full 8 MB LLC
            (serviced by DRAM).
        cache_sensitivity: how strongly the L3 miss rate grows when the
            application receives less LLC capacity under sharing; 0
            means streaming/insensitive, 1 means strongly sensitive.
        mlp: memory-level parallelism -- average number of overlapping
            DRAM accesses achievable by the big out-of-order core.  The
            in-order core cannot overlap misses (MLP ~ 1).
        branch_depends_on_load_prob: probability that a mispredicted
            branch depends on an in-flight long-latency load, delaying
            resolution and filling the ROB with un-ACE wrong-path
            instructions underneath the miss.
    """

    mix: InstructionMix = field(default_factory=InstructionMix)
    dep_distance_mean: float = 4.0
    branch_mpki: float = 2.0
    icache_mpki: float = 0.5
    l1d_mpki: float = 10.0
    l2_mpki: float = 3.0
    l3_mpki: float = 0.5
    cache_sensitivity: float = 0.3
    mlp: float = 1.5
    branch_depends_on_load_prob: float = 0.2

    def __post_init__(self) -> None:
        if self.dep_distance_mean < 1.0:
            raise ValueError("dep_distance_mean must be >= 1")
        if self.mlp < 1.0:
            raise ValueError("mlp must be >= 1")
        for name in ("branch_mpki", "icache_mpki", "l1d_mpki", "l2_mpki", "l3_mpki"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.cache_sensitivity <= 1.0:
            raise ValueError("cache_sensitivity must be in [0, 1]")
        if not 0.0 <= self.branch_depends_on_load_prob <= 1.0:
            raise ValueError("branch_depends_on_load_prob must be in [0, 1]")
        if self.l2_mpki > self.l1d_mpki + 1e-9:
            raise ValueError("L2 misses cannot exceed L1D misses")
        if self.l3_mpki > self.l2_mpki + 1e-9:
            raise ValueError("L3 misses cannot exceed L2 misses")
        branches_pki = 1000.0 * self.mix.branch
        if self.branch_mpki > branches_pki + 1e-9:
            raise ValueError("cannot mispredict more branches than exist")

    def l3_mpki_at_share(self, share_fraction: float) -> float:
        """Effective L3 MPKI when holding a fraction of LLC capacity.

        With full capacity (share 1.0) the application sees its
        isolated ``l3_mpki``; as capacity shrinks, misses grow toward
        the L2 miss rate (every L2 miss also misses in L3), scaled by
        ``cache_sensitivity``.
        """
        share = min(max(share_fraction, 0.0), 1.0)
        headroom = max(self.l2_mpki - self.l3_mpki, 0.0)
        return self.l3_mpki + headroom * self.cache_sensitivity * (1.0 - share)

    def with_l3_mpki(self, l3_mpki: float) -> "PhaseCharacteristics":
        return replace(self, l3_mpki=l3_mpki)


@dataclass(frozen=True)
class BenchmarkProfile:
    """A benchmark: a named sequence of phases.

    Attributes:
        name: benchmark name (SPEC CPU2006 naming).
        instructions: dynamic instruction count of the full run
            (1 billion in the paper's SimPoints; scaled runs divide
            this uniformly across phases).
        phases: ``(fraction, characteristics)`` pairs; fractions sum
            to 1 and give each phase's share of the instruction count.
    """

    name: str
    instructions: int
    phases: tuple[tuple[float, PhaseCharacteristics], ...]

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise ValueError("instructions must be positive")
        if not self.phases:
            raise ValueError("benchmark needs at least one phase")
        total = sum(frac for frac, _ in self.phases)
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            raise ValueError(f"phase fractions sum to {total}, expected 1.0")
        if any(frac <= 0 for frac, _ in self.phases):
            raise ValueError("phase fractions must be positive")
        # Not a field: equality, hashing and repr see only the three
        # fields above, and ``replace`` recomputes it.
        object.__setattr__(self, "_boundaries", tuple(self.phase_boundaries()))

    def phase_boundaries(self, instructions: int | None = None) -> list[int]:
        """Cumulative instruction boundaries of the phases.

        Returns ``len(phases) + 1`` monotonically increasing values
        starting at 0 and ending at ``instructions``.
        """
        n = self.instructions if instructions is None else instructions
        boundaries = [0]
        acc = 0.0
        for frac, _ in self.phases[:-1]:
            acc += frac
            boundaries.append(int(round(acc * n)))
        boundaries.append(n)
        return boundaries

    def phase_span(self, position: int) -> tuple[PhaseCharacteristics, int]:
        """The phase in effect at a position and the instructions left in it.

        Positions beyond the end (restarted applications) wrap around.
        Zero-width phases (a fraction that rounds to no instructions)
        are never returned.
        """
        pos = position % self.instructions
        bounds = self._boundaries
        # Search only the phase starts: they never decrease, while the
        # final boundary is the instruction count itself.
        i = bisect_right(bounds, pos, 0, len(self.phases)) - 1
        return self.phases[i][1], bounds[i + 1] - pos

    def phase_at(self, position: int) -> PhaseCharacteristics:
        """Characteristics in effect at an instruction position.

        Positions beyond the end (restarted applications) wrap around.
        """
        return self.phase_span(position)[0]

    def instructions_until_phase_change(self, position: int) -> int:
        """Instructions left in the current phase from a position."""
        return self.phase_span(position)[1]

    def scaled(self, instructions: int) -> "BenchmarkProfile":
        """The same benchmark at a different instruction count."""
        return replace(self, instructions=instructions)


def uniform_profile(
    name: str, characteristics: PhaseCharacteristics, instructions: int
) -> BenchmarkProfile:
    """A single-phase benchmark profile."""
    return BenchmarkProfile(
        name=name, instructions=instructions, phases=((1.0, characteristics),)
    )
