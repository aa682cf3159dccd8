"""Synthetic trace generator: realize a benchmark profile as a trace.

Given :class:`~repro.workloads.characteristics.PhaseCharacteristics`,
the generator emits a concrete dynamic instruction stream whose
statistics approximate the profile: instruction mix, geometric
register-dependency distances, branch misprediction and I-cache miss
rates, and -- via a reuse-distance mixture -- data-address streams
that produce roughly the target L1D/L2/L3 miss rates when run through
the real LRU caches of `repro.memory`.

Mispredicted branches are made to depend on a recent load with
probability ``branch_depends_on_load_prob``, so the trace-driven
out-of-order model reproduces the "wrong path under a miss" effect
that gives mcf/libquantum their low AVF.

Traces are used by the trace-driven pipeline models for validation and
small-scale studies; paper-scale runs use the mechanistic model.
"""

from __future__ import annotations

import numpy as np

from repro.isa.instruction import InstructionClass
from repro.isa.trace import Trace
from repro.workloads.characteristics import BenchmarkProfile, PhaseCharacteristics

#: Cache line size assumed when crafting reuse distances.
_LINE = 64
#: Reuse-distance bands (in distinct-ish history positions) targeting
#: each hierarchy level: L1 (32 KB = 512 lines), L2 (256 KB = 4 K
#: lines), L3 (8 MB = 128 K lines).
_L1_BAND = (1, 128)
_L2_BAND = (700, 3000)
_L3_BAND = (6000, 50000)

_MEMORY_CLASSES = (InstructionClass.LOAD, InstructionClass.STORE)


def _draw_classes(
    chars: PhaseCharacteristics, n: int, rng: np.random.Generator
) -> np.ndarray:
    mix = chars.mix.as_dict()
    classes = np.array(list(mix.keys()), dtype=np.int8)
    probs = np.array(list(mix.values()))
    probs = probs / probs.sum()
    return rng.choice(classes, size=n, p=probs)


def _draw_dependencies(
    chars: PhaseCharacteristics, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Geometric dependency distances with the profile's mean."""
    mean = chars.dep_distance_mean
    p = min(1.0, 1.0 / mean)
    dep1 = rng.geometric(p, size=n).astype(np.int32)
    # A second operand exists for roughly half the instructions and is
    # usually further away (older value).
    dep2 = np.where(
        rng.random(n) < 0.5, rng.geometric(p / 2.0, size=n), 0
    ).astype(np.int32)
    index = np.arange(n, dtype=np.int64)
    dep1 = np.minimum(dep1, index).astype(np.int32)
    dep2 = np.minimum(dep2, index).astype(np.int32)
    return dep1, dep2


def _draw_addresses(
    chars: PhaseCharacteristics,
    classes: np.ndarray,
    rng: np.random.Generator,
    start_address: int,
) -> np.ndarray:
    """Data addresses from a reuse-distance mixture.

    Each memory access either re-references a line at a reuse distance
    targeting a hierarchy level or streams to a fresh line (DRAM).
    """
    n = len(classes)
    addresses = np.zeros(n, dtype=np.int64)
    is_mem = np.isin(classes, np.array(_MEMORY_CLASSES, dtype=np.int8))
    mem_count = int(is_mem.sum())
    if mem_count == 0:
        return addresses
    accesses_pki = 1000.0 * (chars.mix.load + chars.mix.store)
    # Per-access probabilities of being serviced by each level.
    p_l2 = min(1.0, (chars.l1d_mpki - chars.l2_mpki) / accesses_pki)
    p_l3 = min(1.0, (chars.l2_mpki - chars.l3_mpki) / accesses_pki)
    p_mem = min(1.0, chars.l3_mpki / accesses_pki)
    p_l1 = max(0.0, 1.0 - p_l2 - p_l3 - p_mem)
    levels = rng.choice(
        4, size=mem_count, p=np.array([p_l1, p_l2, p_l3, p_mem])
    )
    # An LRU stack of distinct lines: re-referencing the line at stack
    # distance d guarantees it hits in any LRU cache holding >= d
    # lines and misses in smaller ones, so the bands map directly to
    # hierarchy levels.  The first access and every DRAM-level one
    # stream to a fresh line, which pushes the stack; a reuse moves its
    # line to the top.  So before access j the stack holds
    # min(fresh lines before j, cap) lines, and every reuse distance's
    # bounds are known before the walk: one RNG call draws them all,
    # each element exactly as a scalar ``integers(lo, hi + 1)`` would.
    cap = _L3_BAND[1] + 1
    fresh = levels == 3
    fresh[0] = True
    depth = np.minimum(np.cumsum(fresh), cap)  # read at reuses only
    reuse = ~fresh
    bands = np.array([_L1_BAND, _L2_BAND, _L3_BAND])[levels[reuse]]
    hi = np.minimum(bands[:, 1], depth[reuse])
    lo = np.minimum(bands[:, 0], hi)
    # Distance 0 marks a fresh line; every reuse distance is >= 1.
    distances = np.zeros(mem_count, dtype=np.int64)
    distances[reuse] = rng.integers(lo, hi + 1)
    stack: list[int] = []
    lines: list[int] = []
    pop, push, emit = stack.pop, stack.append, lines.append
    next_fresh = start_address
    for distance in distances.tolist():
        if distance:
            line = pop(-distance)
        else:
            line = next_fresh
            next_fresh += _LINE
            if len(stack) == cap:
                del stack[0]
        push(line)
        emit(line)
    addresses[is_mem] = lines
    return addresses


def _link_branches_to_loads(
    classes: np.ndarray,
    dep1: np.ndarray,
    mispredicted: np.ndarray,
    chars: PhaseCharacteristics,
    rng: np.random.Generator,
) -> None:
    """Make mispredicted branches depend on their most recent load.

    Each mispredicted branch is linked with probability
    ``branch_depends_on_load_prob``, one uniform draw per branch in
    program order; a linked branch with no earlier load keeps its
    dependence.
    """
    p = chars.branch_depends_on_load_prob
    if p <= 0:
        return
    load_positions = np.nonzero(classes == InstructionClass.LOAD)[0]
    if load_positions.size == 0:
        return
    branches = np.nonzero(mispredicted)[0]
    linked = branches[rng.random(branches.size) < p]
    # Index of the last load strictly before each linked branch.
    prior = np.searchsorted(load_positions, linked) - 1
    has_prior = prior >= 0
    linked = linked[has_prior]
    dep1[linked] = linked - load_positions[prior[has_prior]]


def generate_phase_trace(
    chars: PhaseCharacteristics,
    instructions: int,
    rng: np.random.Generator,
    name: str = "phase",
    start_address: int = 1 << 20,
) -> Trace:
    """Generate a trace for a single phase."""
    if instructions <= 0:
        raise ValueError("instruction count must be positive")
    classes = _draw_classes(chars, instructions, rng)
    dep1, dep2 = _draw_dependencies(chars, instructions, rng)
    # NOPs have no dependencies.
    nops = classes == InstructionClass.NOP
    dep1[nops] = 0
    dep2[nops] = 0
    branches = classes == InstructionClass.BRANCH
    branch_frac = max(chars.mix.branch, 1e-9)
    p_miss = min(1.0, chars.branch_mpki / 1000.0 / branch_frac)
    mispredicted = branches & (rng.random(instructions) < p_miss)
    icache_miss = rng.random(instructions) < chars.icache_mpki / 1000.0
    addresses = _draw_addresses(chars, classes, rng, start_address)
    _link_branches_to_loads(classes, dep1, mispredicted, chars, rng)
    return Trace(
        classes=classes,
        dep1=dep1,
        dep2=dep2,
        addresses=addresses,
        mispredicted=mispredicted,
        icache_miss=icache_miss,
        name=name,
    )


def generate_trace(
    profile: BenchmarkProfile,
    instructions: int | None = None,
    seed: int = 0,
) -> Trace:
    """Generate a full trace for a benchmark profile.

    Args:
        profile: the benchmark to realize.
        instructions: trace length (defaults to the profile's count;
            use a smaller value for trace-driven studies).
        seed: RNG seed (same seed, same trace).
    """
    n = profile.instructions if instructions is None else instructions
    scaled = profile.scaled(n)
    rng = np.random.default_rng(seed)
    pieces = []
    boundaries = scaled.phase_boundaries()
    for i, (_, chars) in enumerate(scaled.phases):
        length = boundaries[i + 1] - boundaries[i]
        if length <= 0:
            continue
        # Distinct address regions per phase keep phases' working sets
        # disjoint, as a real program's phases typically are.
        pieces.append(
            generate_phase_trace(
                chars,
                length,
                rng,
                name=f"{profile.name}.phase{i}",
                start_address=(i + 1) << 28,
            )
        )
    return Trace.concatenate(pieces, name=profile.name)
