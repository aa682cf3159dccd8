"""First-order mechanistic core model (interval CPI + occupancy).

This model follows the mechanistic-modelling lineage the paper itself
builds on (interval analysis for CPI, Carlson et al. [4]; first-order
AVF modelling, Nair et al. [18]): per execution phase it analytically
derives

* a CPI stack (base, resource/dependency stalls, branch misprediction,
  I-cache, LLC, main-memory components -- Figure 2), and
* per-structure occupancy and ACE-bit rates (Figures 1 and 5),

for either core type, in O(1) per phase.  The multicore simulator uses
it to run paper-scale experiments (1 B-instruction applications, 1 ms
quanta) directly.

The ACE accounting mirrors the paper's counter architecture exactly:

* big core: ROB, issue queue, load queue, store queue, register file
  (architectural registers ACE all the time; physical destination
  registers ACE from finish to commit) and functional units;
* small core: pipeline-stage latches (fetch to writeback), issue
  queue, store queue, and functional units.

NOPs are non-ACE everywhere.  Wrong-path instructions are non-ACE;
their main reliability effect -- filling the ROB with un-ACE state
underneath long-latency load misses when a mispredicted branch depends
on the missing load (the mcf/libquantum effect) -- is modelled through
``branch_depends_on_load_prob``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config.cores import CoreConfig
from repro.config.machines import MemoryConfig
from repro.config.structures import StructureKind
from repro.cores.base import (
    ARCH_REG_LIVE_FRACTION,
    CoreModel,
    MemoryEnvironment,
    QuantumResult,
)
from repro.isa.instruction import (
    FP_WRITERS,
    INT_WRITERS,
    InstructionClass,
)

if TYPE_CHECKING:  # avoid a circular import with repro.workloads
    from repro.workloads.characteristics import (
        BenchmarkProfile,
        PhaseCharacteristics,
    )

# -- Model constants (calibrated against the trace-driven pipeline models) --

#: L1-D hit latency added to a load's producer-to-consumer latency.
_L1D_HIT_EXTRA = 3.0
#: Fraction of an L2 hit's latency the out-of-order window fails to hide.
_L2_EXPOSED_BIG = 0.25
#: Fraction of an L3 hit's latency the out-of-order window fails to hide.
_L3_EXPOSED_BIG = 0.55
#: Extra cycles of an I-cache miss beyond the L2 access itself.
_ICACHE_EXTRA = 2.0
#: Correct-path ROB entries surviving a misprediction flush.
_REFILL_OCCUPANCY = 8.0
#: Average ROB occupancy during a front-end stall, relative to base.
_FE_OCCUPANCY_FACTOR = 0.25
#: ROB fill level reached while a DRAM access blocks commit.
_MEM_OCCUPANCY_FACTOR = 0.95
#: Fraction of the ROB holding wrong-path state under a load miss when
#: the mispredicted branch depends on that load.
_WRONG_PATH_WINDOW_FRACTION = 0.85
#: Correct-path window cap: with a misprediction every N instructions,
#: at most about this fraction of N correct-path instructions can be
#: in flight at once (everything fetched past the branch is wrong
#: path, hence un-ACE).
_CORRECT_PATH_RUN_FACTOR = 0.5
#: Issue-queue occupancy as a fraction of ROB occupancy, per regime.
_IQ_FRACTION = {"base": 0.20, "fe": 0.10, "llc": 0.30, "mem": 0.30}
#: Fraction of ROB entries whose destination register is ACE
#: (finished but not committed), per regime.
_REG_LIVE_FRACTION = {"base": 0.35, "fe": 0.20, "llc": 0.50, "mem": 0.70}
#: Store-queue residency multiplier (stores linger past commit).
_STORE_RESIDENCY = 1.2
#: Pipeline slack added to backend residence time (big core, cycles).
_BACKEND_SLACK = 2.0
#: In-order issue efficiency: fraction of the dataflow ILP an in-order
#: pipeline can exploit (no reordering around stalled instructions).
_INORDER_ILP_EFFICIENCY = 0.55
#: Small-core store-queue drain time in cycles.
_SMALL_STORE_DRAIN = 3.0
#: Memory-level parallelism achievable by the small in-order core.
_SMALL_MLP = 1.0
#: Live architectural-register fraction (shared model constant).
_ARCH_REG_LIVE_FRACTION = ARCH_REG_LIVE_FRACTION

#: Entries a model's phase-analysis memo holds before it is emptied.
#: Hit rates are flat from 32 entries up, while an unbounded memo
#: grows with every new interference environment (docs/performance.md).
ANALYSIS_MEMO_CAP = 256


@dataclass(frozen=True)
class PhaseAnalysis:
    """Steady-state behaviour of one phase on one core type.

    Attributes:
        ipc: committed instructions per cycle.
        cpi_components: CPI stack, keyed by component name
            (``base``, ``resource``, ``bpred``, ``icache``, ``l2``,
            ``llc``, ``mem``).
        ace_bits_per_cycle: average resident ACE bits per structure.
        occupancy_bits_per_cycle: average resident bits (ACE or not).
        dram_accesses_per_instruction: DRAM accesses per instruction.
        l3_accesses_per_instruction: L3 accesses per instruction.
    """

    ipc: float
    cpi_components: dict[str, float]
    ace_bits_per_cycle: dict[StructureKind, float]
    occupancy_bits_per_cycle: dict[StructureKind, float]
    dram_accesses_per_instruction: float
    l3_accesses_per_instruction: float

    @property
    def cpi(self) -> float:
        return sum(self.cpi_components.values())

    @property
    def total_ace_bits_per_cycle(self) -> float:
        return sum(self.ace_bits_per_cycle.values())

    def avf(self, core: CoreConfig) -> float:
        return self.total_ace_bits_per_cycle / core.total_ace_capacity_bits


def _miss_rates(
    chars: "PhaseCharacteristics", env: MemoryEnvironment
) -> tuple[float, float, float]:
    """(L1D, L2, L3) misses per instruction under the environment."""
    m1 = chars.l1d_mpki / 1000.0
    m2 = chars.l2_mpki / 1000.0
    m3 = chars.l3_mpki_at_share(env.l3_share_fraction) / 1000.0
    return m1, m2, min(m3, m2)


def _dram_latency(
    core: CoreConfig, memory: MemoryConfig, env: MemoryEnvironment
) -> float:
    """Full L3-miss-to-data latency in core cycles."""
    dram = memory.dram_latency_cycles(core.frequency_ghz)
    return memory.l3.latency_cycles + dram * env.dram_latency_multiplier


def _producer_latency(chars: "PhaseCharacteristics") -> float:
    """Mean producer-to-consumer latency along dependency chains."""
    return chars.mix.average_execution_latency() + chars.mix.load * _L1D_HIT_EXTRA


def _fu_throughput_limit(core: CoreConfig, chars: "PhaseCharacteristics") -> float:
    """IPC ceiling imposed by functional-unit pool throughput."""
    limit = math.inf
    for pool in core.functional_units:
        frac = chars.mix.as_dict().get(pool.instruction_class, 0.0)
        if frac > 0:
            limit = min(limit, pool.throughput / frac)
    return limit


def _fu_bits(
    core: CoreConfig, chars: "PhaseCharacteristics", ipc: float
) -> tuple[float, float]:
    """(ACE, occupied) functional-unit bits per cycle at a given IPC."""
    mix = chars.mix.as_dict()
    occupied = 0.0
    for pool in core.functional_units:
        frac = mix.get(pool.instruction_class, 0.0)
        busy_units = min(ipc * frac * pool.latency, float(pool.max_in_flight))
        occupied += busy_units * pool.bits
    # Loads/stores/branches execute on the integer ALUs for one cycle.
    alu = core.fu_pool(InstructionClass.INT_ALU)
    extra_frac = chars.mix.load + chars.mix.store + chars.mix.branch
    occupied += min(ipc * extra_frac, float(alu.count)) * alu.bits
    # NOPs never occupy a functional unit, so occupied == ACE here.
    return occupied, occupied


def _register_bits_per_writer(chars: "PhaseCharacteristics") -> float:
    """Mean destination-register width over register-writing instructions."""
    mix = chars.mix.as_dict()
    int_frac = sum(mix[c] for c in INT_WRITERS)
    fp_frac = sum(mix[c] for c in FP_WRITERS)
    total = int_frac + fp_frac
    if total == 0:
        return 0.0
    return (int_frac * 64.0 + fp_frac * 128.0) / total


def _writer_fraction(chars: "PhaseCharacteristics") -> float:
    mix = chars.mix.as_dict()
    return sum(mix[c] for c in INT_WRITERS | FP_WRITERS)


def analyze_big_phase(
    chars: "PhaseCharacteristics",
    core: CoreConfig,
    memory: MemoryConfig,
    env: MemoryEnvironment,
) -> PhaseAnalysis:
    """Analyze one phase on the big out-of-order core."""
    if not core.out_of_order:
        raise ValueError("analyze_big_phase requires an out-of-order core")
    assert core.rob is not None and core.load_queue is not None

    width = float(core.width)
    rob_size = float(core.rob.entries)
    m1, m2, m3 = _miss_rates(chars, env)
    br = chars.branch_mpki / 1000.0
    ic = chars.icache_mpki / 1000.0
    dram_lat = _dram_latency(core, memory, env)
    l2_lat = float(memory.l2.latency_cycles)
    l3_lat = float(memory.l3.latency_cycles)

    producer_lat = _producer_latency(chars)
    ipc_dataflow = chars.dep_distance_mean / producer_lat
    ipc_limit = min(width, ipc_dataflow, _fu_throughput_limit(core, chars))

    p_bl = chars.branch_depends_on_load_prob
    drain = producer_lat + _BACKEND_SLACK
    components = {
        "base": 1.0 / width,
        "resource": 1.0 / ipc_limit - 1.0 / width,
        "bpred": br * (core.frontend_depth + drain * (1.0 - p_bl)),
        "icache": ic * (l2_lat + _ICACHE_EXTRA),
        "l2": (m1 - m2) * l2_lat * _L2_EXPOSED_BIG,
        "llc": (m2 - m3) * l3_lat * _L3_EXPOSED_BIG,
        "mem": m3 * dram_lat / chars.mlp,
    }
    cpi = sum(components.values())
    ipc = 1.0 / cpi

    # -- Regime decomposition (cycles per instruction in each regime) --
    t_mem = components["mem"]
    t_fe = components["bpred"] + components["icache"]
    t_llc = components["llc"]
    t_base = cpi - t_mem - t_fe - t_llc

    # ROB occupancy per regime.  During dependence-bound execution the
    # front end outruns commit, so the ROB ramps toward full between
    # front-end disruptions.
    refill_occ = min(rob_size, _REFILL_OCCUPANCY)
    fill_rate = max(0.0, width - ipc_limit)
    fe_events = br + ic
    if fill_rate <= 1e-12:
        # Fetch-bound steady state: Little's law at full width.
        occ_base = min(rob_size, width * (producer_lat + _BACKEND_SLACK * 2))
    elif fe_events <= 1e-12:
        occ_base = rob_size
    else:
        base_interval = t_base / fe_events  # cycles of base regime per event
        time_to_fill = (rob_size - refill_occ) / fill_rate
        if base_interval <= time_to_fill:
            occ_base = refill_occ + fill_rate * base_interval / 2.0
        else:
            ramp_avg = (refill_occ + rob_size) / 2.0
            occ_base = (
                ramp_avg * time_to_fill + rob_size * (base_interval - time_to_fill)
            ) / base_interval
    occ_mem = rob_size * _MEM_OCCUPANCY_FACTOR
    occ_llc = (occ_base + rob_size) / 2.0
    occ_fe = occ_base * _FE_OCCUPANCY_FACTOR

    regimes = {"base": (t_base, occ_base), "fe": (t_fe, occ_fe),
               "llc": (t_llc, occ_llc), "mem": (t_mem, occ_mem)}

    non_nop = 1.0 - chars.mix.nop
    wrong_path = {"base": 0.0, "fe": 0.0, "llc": 0.0,
                  "mem": p_bl * _WRONG_PATH_WINDOW_FRACTION}
    # With a misprediction every 1/br instructions, only about half a
    # run of correct-path instructions can be in flight at once; the
    # rest of the window holds un-ACE wrong-path state.
    run_cap = (
        _CORRECT_PATH_RUN_FACTOR / br if br > 0 else math.inf
    )

    rob_bits = float(core.rob.bits_per_entry)
    iq_size, iq_bits = float(core.issue_queue.entries), float(
        core.issue_queue.bits_per_entry
    )
    lq_size, lq_bits = float(core.load_queue.entries), float(
        core.load_queue.bits_per_entry
    )
    sq_size, sq_bits = float(core.store_queue.entries), float(
        core.store_queue.bits_per_entry
    )

    ace = {kind: 0.0 for kind in (
        StructureKind.ROB, StructureKind.ISSUE_QUEUE, StructureKind.LOAD_QUEUE,
        StructureKind.STORE_QUEUE, StructureKind.REGISTER_FILE,
        StructureKind.FUNCTIONAL_UNITS,
    )}
    occupancy = dict(ace)
    reg_bits_per_writer = _register_bits_per_writer(chars)
    writer_frac = _writer_fraction(chars)

    for regime, (t_ci, occ) in regimes.items():
        if t_ci <= 0.0:
            continue
        weight = t_ci / cpi  # fraction of cycles spent in this regime
        correct_path = 1.0 - wrong_path[regime]
        if occ > 0 and math.isfinite(run_cap):
            correct_path = min(correct_path, run_cap / occ)
        ace_frac = non_nop * correct_path
        occ_iq = min(iq_size, occ * _IQ_FRACTION[regime])
        occ_lq = min(lq_size, occ * chars.mix.load)
        occ_sq = min(sq_size, occ * chars.mix.store * _STORE_RESIDENCY)
        live_regs = occ * writer_frac * _REG_LIVE_FRACTION[regime]

        occupancy[StructureKind.ROB] += weight * occ * rob_bits
        occupancy[StructureKind.ISSUE_QUEUE] += weight * occ_iq * iq_bits
        occupancy[StructureKind.LOAD_QUEUE] += weight * occ_lq * lq_bits
        occupancy[StructureKind.STORE_QUEUE] += weight * occ_sq * sq_bits
        occupancy[StructureKind.REGISTER_FILE] += weight * (
            live_regs * reg_bits_per_writer
        )

        ace[StructureKind.ROB] += weight * occ * rob_bits * ace_frac
        ace[StructureKind.ISSUE_QUEUE] += weight * occ_iq * iq_bits * ace_frac
        ace[StructureKind.LOAD_QUEUE] += weight * occ_lq * lq_bits * ace_frac
        ace[StructureKind.STORE_QUEUE] += weight * occ_sq * sq_bits * ace_frac
        ace[StructureKind.REGISTER_FILE] += weight * (
            live_regs * reg_bits_per_writer * ace_frac
        )

    # Live architectural registers are ACE independent of occupancy.
    arch_bits = float(core.register_file.arch_bits) * _ARCH_REG_LIVE_FRACTION
    ace[StructureKind.REGISTER_FILE] += arch_bits
    occupancy[StructureKind.REGISTER_FILE] += arch_bits

    fu_ace, fu_occ = _fu_bits(core, chars, ipc)
    ace[StructureKind.FUNCTIONAL_UNITS] = fu_ace
    occupancy[StructureKind.FUNCTIONAL_UNITS] = fu_occ

    return PhaseAnalysis(
        ipc=ipc,
        cpi_components=components,
        ace_bits_per_cycle=ace,
        occupancy_bits_per_cycle=occupancy,
        dram_accesses_per_instruction=m3,
        l3_accesses_per_instruction=m2,
    )


def analyze_small_phase(
    chars: "PhaseCharacteristics",
    core: CoreConfig,
    memory: MemoryConfig,
    env: MemoryEnvironment,
) -> PhaseAnalysis:
    """Analyze one phase on the small in-order core."""
    if core.out_of_order:
        raise ValueError("analyze_small_phase requires an in-order core")
    assert core.pipeline_latches is not None

    width = float(core.width)
    m1, m2, m3 = _miss_rates(chars, env)
    br = chars.branch_mpki / 1000.0
    ic = chars.icache_mpki / 1000.0
    dram_lat = _dram_latency(core, memory, env)
    l2_lat = float(memory.l2.latency_cycles)
    l3_lat = float(memory.l3.latency_cycles)

    producer_lat = _producer_latency(chars)
    ipc_dataflow = (
        _INORDER_ILP_EFFICIENCY * chars.dep_distance_mean / producer_lat
    )
    ipc_limit = min(width, ipc_dataflow, _fu_throughput_limit(core, chars))

    components = {
        "base": 1.0 / width,
        "resource": 1.0 / ipc_limit - 1.0 / width,
        "bpred": br * core.frontend_depth,
        "icache": ic * (l2_lat + _ICACHE_EXTRA),
        "l2": (m1 - m2) * l2_lat,  # stall-on-use: fully exposed
        "llc": (m2 - m3) * l3_lat,
        "mem": m3 * dram_lat / _SMALL_MLP,
    }
    cpi = sum(components.values())
    ipc = 1.0 / cpi

    # Regimes: stall cycles keep the pipeline latches fully occupied;
    # flowing cycles hold roughly IPC * depth instructions.
    latches = core.pipeline_latches
    latch_slots = float(latches.entries)
    latch_bits = float(latches.bits_per_entry)
    t_stall = components["l2"] + components["llc"] + components["mem"]
    t_fe = components["bpred"] + components["icache"]
    t_flow = cpi - t_stall - t_fe

    occ_flow = min(latch_slots, ipc_limit * core.frontend_depth)
    occ_stall = latch_slots
    occ_fe = occ_flow * _FE_OCCUPANCY_FACTOR

    iq_size = float(core.issue_queue.entries)
    iq_bits = float(core.issue_queue.bits_per_entry)
    sq_size = float(core.store_queue.entries)
    sq_bits = float(core.store_queue.bits_per_entry)

    non_nop = 1.0 - chars.mix.nop
    regimes = {"flow": (t_flow, occ_flow), "fe": (t_fe, occ_fe),
               "stall": (t_stall, occ_stall)}
    iq_occ = {"flow": min(iq_size, ipc_limit), "fe": 0.5,
              "stall": iq_size}
    sq_base = min(sq_size, ipc * chars.mix.store * _SMALL_STORE_DRAIN)
    sq_occ = {"flow": sq_base, "fe": sq_base * 0.5,
              "stall": min(sq_size, sq_base + 2.0 * chars.mix.store * 10.0)}

    ace = {kind: 0.0 for kind in (
        StructureKind.PIPELINE_LATCHES, StructureKind.ISSUE_QUEUE,
        StructureKind.STORE_QUEUE, StructureKind.REGISTER_FILE,
        StructureKind.FUNCTIONAL_UNITS,
    )}
    occupancy = dict(ace)
    # Live architectural registers are ACE on either core type
    # (ground truth).  The small core's cheap counter hardware does
    # not measure them (see repro.ace.counters.measured_abc).
    arch_bits = float(core.register_file.arch_bits) * _ARCH_REG_LIVE_FRACTION
    ace[StructureKind.REGISTER_FILE] = arch_bits
    occupancy[StructureKind.REGISTER_FILE] = arch_bits
    for regime, (t_ci, occ) in regimes.items():
        if t_ci <= 0.0:
            continue
        weight = t_ci / cpi
        occupancy[StructureKind.PIPELINE_LATCHES] += weight * occ * latch_bits
        occupancy[StructureKind.ISSUE_QUEUE] += weight * iq_occ[regime] * iq_bits
        occupancy[StructureKind.STORE_QUEUE] += weight * sq_occ[regime] * sq_bits
        ace[StructureKind.PIPELINE_LATCHES] += (
            weight * occ * latch_bits * non_nop
        )
        ace[StructureKind.ISSUE_QUEUE] += (
            weight * iq_occ[regime] * iq_bits * non_nop
        )
        ace[StructureKind.STORE_QUEUE] += (
            weight * sq_occ[regime] * sq_bits * non_nop
        )

    fu_ace, fu_occ = _fu_bits(core, chars, ipc)
    ace[StructureKind.FUNCTIONAL_UNITS] = fu_ace
    occupancy[StructureKind.FUNCTIONAL_UNITS] = fu_occ

    return PhaseAnalysis(
        ipc=ipc,
        cpi_components=components,
        ace_bits_per_cycle=ace,
        occupancy_bits_per_cycle=occupancy,
        dram_accesses_per_instruction=m3,
        l3_accesses_per_instruction=m2,
    )


def analyze_phase(
    chars: "PhaseCharacteristics",
    core: CoreConfig,
    memory: MemoryConfig,
    env: MemoryEnvironment,
) -> PhaseAnalysis:
    """Analyze a phase on whichever core type is given."""
    if core.out_of_order:
        return analyze_big_phase(chars, core, memory, env)
    return analyze_small_phase(chars, core, memory, env)


class MechanisticCoreModel(CoreModel):
    """O(1)-per-quantum core model driven by benchmark profiles.

    ``analyze`` is memoized per model: the analysis is a pure function
    of (phase, memory environment) for a fixed core and memory, and
    interference settles at bitwise-repeating environments.  Entries
    are keyed by the phase's ``id`` and pin the phase object, so a key
    is never reused by a different live object; a hit is confirmed by
    identity.  The memo is emptied whenever it reaches
    :data:`ANALYSIS_MEMO_CAP` entries.  Callers share the returned
    analyses, so treat them as read-only.
    """

    def __init__(self, core: CoreConfig, memory: MemoryConfig | None = None):
        super().__init__(core)
        self.memory = memory if memory is not None else MemoryConfig()
        self._memo: dict[
            tuple[int, float, float],
            tuple["PhaseCharacteristics", PhaseAnalysis],
        ] = {}

    def analyze(
        self, chars: "PhaseCharacteristics", env: MemoryEnvironment
    ) -> PhaseAnalysis:
        key = (id(chars), env.l3_share_fraction, env.dram_latency_multiplier)
        entry = self._memo.get(key)
        if entry is not None and entry[0] is chars:
            return entry[1]
        analysis = analyze_phase(chars, self.core, self.memory, env)
        if len(self._memo) >= ANALYSIS_MEMO_CAP:
            self._memo.clear()
        self._memo[key] = (chars, analysis)
        return analysis

    def run_cycles(
        self,
        app: "BenchmarkProfile",
        start_instruction: int,
        cycles: float,
        env: MemoryEnvironment,
    ) -> QuantumResult:
        """Advance a profile through a cycle budget, phase by phase."""
        if cycles <= 0:
            return QuantumResult.zero()
        # Accumulate in place, adding each chunk's terms in the same
        # order ``QuantumResult.merged_with`` would, so the totals are
        # bit-identical to merging one result per chunk.
        committed = 0
        elapsed = 0.0
        ace: dict[StructureKind, float] = {}
        occupancy: dict[StructureKind, float] = {}
        dram = l3 = mispredictions = 0.0
        position = start_instruction
        remaining = float(cycles)
        # Iterate phase chunks; each chunk is homogeneous, so the phase
        # analysis applies uniformly across it.
        while remaining > 1e-9:
            chars, to_phase_end = app.phase_span(position)
            analysis = self.analyze(chars, env)
            cpi = analysis.cpi
            chunk_cycles = min(remaining, to_phase_end * cpi)
            instructions = int(round(chunk_cycles / cpi))
            if instructions <= 0:
                # Budget too small to commit a single instruction in
                # this phase; consume the remaining cycles idle.
                elapsed += remaining
                break
            chunk_cycles = instructions * cpi
            for kind, rate in analysis.ace_bits_per_cycle.items():
                ace[kind] = ace.get(kind, 0.0) + rate * chunk_cycles
            for kind, rate in analysis.occupancy_bits_per_cycle.items():
                occupancy[kind] = (
                    occupancy.get(kind, 0.0) + rate * chunk_cycles
                )
            committed += instructions
            elapsed += chunk_cycles
            dram += analysis.dram_accesses_per_instruction * instructions
            l3 += analysis.l3_accesses_per_instruction * instructions
            mispredictions += chars.branch_mpki / 1000.0 * instructions
            position += instructions
            remaining -= chunk_cycles
        return QuantumResult(
            instructions=committed,
            cycles=elapsed,
            ace_bit_cycles=ace,
            occupancy_bit_cycles=occupancy,
            memory_accesses=dram,
            l3_accesses=l3,
            branch_mispredictions=mispredictions,
        )
