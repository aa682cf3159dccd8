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
quanta) directly.  An analysis splits into :class:`PhaseFeatures`, the
part fixed by (phase, core, memory), and a short tail that depends on
the memory environment.

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

#: One mechanistic slice in columns: (instructions, cycles, structure
#: keys, ACE bit-cycles and occupied bit-cycles in key order, DRAM
#: accesses, L3 accesses, branch mispredictions).
SliceColumns = tuple

#: The columns of a slice with no cycle budget.
NO_COLUMNS: SliceColumns = (0, 0.0, (), (), (), 0.0, 0.0, 0.0)

#: Phases a model's feature table holds before it is emptied.  A
#: campaign's profiles have a few dozen phases, so a table refills
#: only when phase objects are created faster than they repeat
#: (docs/performance.md).
FEATURE_TABLE_CAP = 256


#: CPI-stack component names, in the order the analyzers stack them.
_CPI_COMPONENTS = ("base", "resource", "bpred", "icache", "l2", "llc", "mem")

#: The structures each core type's analyses report, in dict order.
_BIG_STRUCTURES = (
    StructureKind.ROB,
    StructureKind.ISSUE_QUEUE,
    StructureKind.LOAD_QUEUE,
    StructureKind.STORE_QUEUE,
    StructureKind.REGISTER_FILE,
    StructureKind.FUNCTIONAL_UNITS,
)
_SMALL_STRUCTURES = (
    StructureKind.PIPELINE_LATCHES,
    StructureKind.ISSUE_QUEUE,
    StructureKind.STORE_QUEUE,
    StructureKind.REGISTER_FILE,
    StructureKind.FUNCTIONAL_UNITS,
)


class PhaseAnalysis:
    """Steady-state behaviour of one phase on one core type.

    Attributes:
        ipc: committed instructions per cycle.
        cpi: cycles per instruction, the sum of ``cpi_components``.
        cpi_components: CPI stack, keyed by component name
            (``base``, ``resource``, ``bpred``, ``icache``, ``l2``,
            ``llc``, ``mem``).
        ace_bits_per_cycle: average resident ACE bits per structure.
        occupancy_bits_per_cycle: average resident bits (ACE or not),
            keyed like ``ace_bits_per_cycle``.
        dram_accesses_per_instruction: DRAM accesses per instruction.
        l3_accesses_per_instruction: L3 accesses per instruction.
        structures: the structure keys, in dict order.
        ace_rates / occupancy_rates: the two per-structure maps' values
            in ``structures`` order.

    The constructor takes the three maps and derives the rest.  The
    analyzers' environment tails instead compute ``cpi`` and the rate
    tuples directly (``_from_columns``), because ``run_columns`` reads
    only those; the maps are then built on first read, with the same
    keys, order and values.  Equality compares ``ipc``, the three maps
    and the two per-instruction rates.  Treat analyses as read-only.
    """

    __slots__ = (
        "ipc", "cpi", "structures", "ace_rates", "occupancy_rates",
        "dram_accesses_per_instruction", "l3_accesses_per_instruction",
        "_components", "_cpi_components", "_ace", "_occupancy",
    )

    def __init__(
        self,
        ipc: float,
        cpi_components: dict[str, float],
        ace_bits_per_cycle: dict[StructureKind, float],
        occupancy_bits_per_cycle: dict[StructureKind, float],
        dram_accesses_per_instruction: float,
        l3_accesses_per_instruction: float,
    ) -> None:
        self.ipc = ipc
        self.cpi = sum(cpi_components.values())
        self.structures = tuple(ace_bits_per_cycle)
        self.ace_rates = tuple(ace_bits_per_cycle.values())
        self.occupancy_rates = tuple(occupancy_bits_per_cycle.values())
        self.dram_accesses_per_instruction = dram_accesses_per_instruction
        self.l3_accesses_per_instruction = l3_accesses_per_instruction
        self._components = None
        self._cpi_components = cpi_components
        self._ace = ace_bits_per_cycle
        self._occupancy = occupancy_bits_per_cycle

    @classmethod
    def _from_columns(
        cls,
        ipc: float,
        cpi: float,
        components: tuple[float, ...],
        structures: tuple[StructureKind, ...],
        ace_rates: tuple[float, ...],
        occupancy_rates: tuple[float, ...],
        dram_accesses_per_instruction: float,
        l3_accesses_per_instruction: float,
    ) -> "PhaseAnalysis":
        """An analysis from its columns; the maps wait until read.
        ``components`` are the CPI stack's values in stack order."""
        analysis = object.__new__(cls)
        analysis.ipc = ipc
        analysis.cpi = cpi
        analysis.structures = structures
        analysis.ace_rates = ace_rates
        analysis.occupancy_rates = occupancy_rates
        analysis.dram_accesses_per_instruction = dram_accesses_per_instruction
        analysis.l3_accesses_per_instruction = l3_accesses_per_instruction
        analysis._components = components
        analysis._cpi_components = analysis._ace = analysis._occupancy = None
        return analysis

    @property
    def cpi_components(self) -> dict[str, float]:
        components = self._cpi_components
        if components is None:
            components = dict(zip(_CPI_COMPONENTS, self._components))
            self._cpi_components = components
        return components

    @property
    def ace_bits_per_cycle(self) -> dict[StructureKind, float]:
        ace = self._ace
        if ace is None:
            ace = self._ace = dict(zip(self.structures, self.ace_rates))
        return ace

    @property
    def occupancy_bits_per_cycle(self) -> dict[StructureKind, float]:
        occupancy = self._occupancy
        if occupancy is None:
            occupancy = dict(zip(self.structures, self.occupancy_rates))
            self._occupancy = occupancy
        return occupancy

    def _fields(self) -> tuple:
        return (
            self.ipc, self.cpi_components, self.ace_bits_per_cycle,
            self.occupancy_bits_per_cycle, self.dram_accesses_per_instruction,
            self.l3_accesses_per_instruction,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    __hash__ = None  # type: ignore[assignment]  # holds dicts

    def __repr__(self) -> str:
        return (
            f"PhaseAnalysis(ipc={self.ipc!r}, "
            f"cpi_components={self.cpi_components!r}, "
            f"ace_bits_per_cycle={self.ace_bits_per_cycle!r}, "
            f"occupancy_bits_per_cycle={self.occupancy_bits_per_cycle!r}, "
            f"dram_accesses_per_instruction="
            f"{self.dram_accesses_per_instruction!r}, "
            f"l3_accesses_per_instruction="
            f"{self.l3_accesses_per_instruction!r})"
        )

    @property
    def total_ace_bits_per_cycle(self) -> float:
        return sum(self.ace_rates)

    def avf(self, core: CoreConfig) -> float:
        return self.total_ace_bits_per_cycle / core.total_ace_capacity_bits


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


class PhaseFeatures:
    """The environment-independent part of one (phase, core, memory).

    Only the LLC miss rate (``l3_mpki_at_share``), the DRAM latency
    multiplier and everything downstream of them vary with the
    :class:`~repro.cores.base.MemoryEnvironment`.  Everything else an
    analysis needs is computed here once, as plain Python floats in
    the analyzers' exact operation order; :func:`analyze_features`
    evaluates the environment tail from these values.  Occupancy
    attributes exist only for the ``kind`` of core they model.

    ``l3_mpki``/``sens_headroom`` restate ``l3_mpki_at_share`` for the
    tail.  On a big core the memory regime's ROB occupancy and
    wrong-path share are fixed, so its per-regime terms (``mem_*``) are
    computed here too.  ``pools`` carries, per functional-unit pool,
    (mix fraction, latency, max in flight, bits) for the IPC-dependent
    FU term.
    """

    __slots__ = (
        "kind", "core", "memory", "chars",
        # miss-rate and latency inputs
        "m2", "l3_mpki", "sens_headroom", "mlp", "l3_lat", "dram_base",
        # CPI stack
        "comp_base", "comp_resource", "comp_bpred", "comp_icache",
        "comp_l2", "t_fe",
        # mix-derived
        "non_nop", "load", "store", "writer_frac", "reg_bits_per_writer",
        "arch_add", "iq_size", "iq_bits", "sq_size", "sq_bits",
        # big-core occupancy model
        "rob_size", "rob_bits", "lq_size", "lq_bits",
        "occ_base_fixed", "occ_base_const", "fe_events", "fill_rate",
        "refill_occ", "time_to_fill", "ramp_ttf", "occ_mem",
        "wp_mem", "run_cap", "run_cap_finite",
        # big-core memory-regime terms
        "mem_ace_frac", "mem_iq", "mem_lq", "mem_sq", "mem_rf_occ",
        "mem_rf_ace",
        # small-core occupancy model
        "latch_bits", "occ_flow", "occ_stall", "occ_fe_small",
        "iq_occ_flow", "iq_occ_fe", "iq_occ_stall", "store_drain_extra",
        # functional units: (frac, latency, max_in_flight, bits) + ALU extra
        "pools", "alu_count", "alu_bits", "extra_frac",
    )

    def __init__(
        self,
        chars: "PhaseCharacteristics",
        core: CoreConfig,
        memory: MemoryConfig,
    ) -> None:
        self.kind = "big" if core.out_of_order else "small"
        self.core = core
        self.memory = memory
        self.chars = chars

        width = float(core.width)
        m1 = chars.l1d_mpki / 1000.0
        self.m2 = chars.l2_mpki / 1000.0
        # l3_mpki_at_share(s) == l3_mpki + (headroom*sens) * (1 - s)
        self.l3_mpki = chars.l3_mpki
        headroom = max(chars.l2_mpki - chars.l3_mpki, 0.0)
        self.sens_headroom = headroom * chars.cache_sensitivity
        br = chars.branch_mpki / 1000.0
        ic = chars.icache_mpki / 1000.0
        p_bl = chars.branch_depends_on_load_prob
        self.mlp = chars.mlp if core.out_of_order else _SMALL_MLP
        l2_lat = float(memory.l2.latency_cycles)
        self.l3_lat = float(memory.l3.latency_cycles)
        self.dram_base = memory.dram_latency_cycles(core.frequency_ghz)

        producer_lat = _producer_latency(chars)
        if core.out_of_order:
            ipc_dataflow = chars.dep_distance_mean / producer_lat
        else:
            ipc_dataflow = (
                _INORDER_ILP_EFFICIENCY * chars.dep_distance_mean / producer_lat
            )
        ipc_limit = min(width, ipc_dataflow, _fu_throughput_limit(core, chars))

        self.comp_base = 1.0 / width
        self.comp_resource = 1.0 / ipc_limit - 1.0 / width
        if core.out_of_order:
            drain = producer_lat + _BACKEND_SLACK
            self.comp_bpred = br * (core.frontend_depth + drain * (1.0 - p_bl))
            self.comp_l2 = (m1 - self.m2) * l2_lat * _L2_EXPOSED_BIG
        else:
            self.comp_bpred = br * core.frontend_depth
            # Stall-on-use: fully exposed.
            self.comp_l2 = (m1 - self.m2) * l2_lat
        self.comp_icache = ic * (l2_lat + _ICACHE_EXTRA)
        self.t_fe = self.comp_bpred + self.comp_icache

        self.non_nop = 1.0 - chars.mix.nop
        self.load = chars.mix.load
        self.store = chars.mix.store
        self.writer_frac = _writer_fraction(chars)
        self.reg_bits_per_writer = _register_bits_per_writer(chars)
        # Live architectural registers are ACE independent of
        # occupancy, on either core type (ground truth).  The small
        # core's cheap counter hardware does not measure them (see
        # repro.ace.counters.measured_abc).
        self.arch_add = (
            float(core.register_file.arch_bits) * _ARCH_REG_LIVE_FRACTION
        )
        self.iq_size = float(core.issue_queue.entries)
        self.iq_bits = float(core.issue_queue.bits_per_entry)
        self.sq_size = float(core.store_queue.entries)
        self.sq_bits = float(core.store_queue.bits_per_entry)

        if core.out_of_order:
            assert core.rob is not None and core.load_queue is not None
            rob_size = float(core.rob.entries)
            self.rob_size = rob_size
            self.rob_bits = float(core.rob.bits_per_entry)
            self.lq_size = float(core.load_queue.entries)
            self.lq_bits = float(core.load_queue.bits_per_entry)
            # ROB occupancy in the base regime.  During dependence-bound
            # execution the front end outruns commit, so the ROB ramps
            # toward full between front-end disruptions.
            self.refill_occ = min(rob_size, _REFILL_OCCUPANCY)
            self.fill_rate = max(0.0, width - ipc_limit)
            self.fe_events = br + ic
            self.occ_base_fixed = True
            self.time_to_fill = 1.0
            self.ramp_ttf = 0.0
            if self.fill_rate <= 1e-12:
                # Fetch-bound steady state: Little's law at full width.
                self.occ_base_const = min(
                    rob_size, width * (producer_lat + _BACKEND_SLACK * 2)
                )
            elif self.fe_events <= 1e-12:
                self.occ_base_const = rob_size
            else:
                self.occ_base_fixed = False
                self.occ_base_const = 0.0
                self.time_to_fill = (rob_size - self.refill_occ) / self.fill_rate
                ramp_avg = (self.refill_occ + rob_size) / 2.0
                self.ramp_ttf = ramp_avg * self.time_to_fill
            self.occ_mem = rob_size * _MEM_OCCUPANCY_FACTOR
            self.wp_mem = p_bl * _WRONG_PATH_WINDOW_FRACTION
            # With a misprediction every 1/br instructions, only about
            # half a run of correct-path instructions can be in flight
            # at once; the rest of the window holds un-ACE wrong-path
            # state.
            self.run_cap = (
                _CORRECT_PATH_RUN_FACTOR / br if br > 0 else math.inf
            )
            self.run_cap_finite = math.isfinite(self.run_cap)
            # Every memory-regime term but the regime's weight, in the
            # tail's operation order.
            occ = self.occ_mem
            correct_path = 1.0 - self.wp_mem
            if occ > 0 and self.run_cap_finite:
                correct_path = min(correct_path, self.run_cap / occ)
            self.mem_ace_frac = self.non_nop * correct_path
            self.mem_iq = min(self.iq_size, occ * _IQ_FRACTION["mem"])
            self.mem_lq = min(self.lq_size, occ * self.load)
            self.mem_sq = min(
                self.sq_size, occ * self.store * _STORE_RESIDENCY
            )
            live_regs = occ * self.writer_frac * _REG_LIVE_FRACTION["mem"]
            self.mem_rf_occ = live_regs * self.reg_bits_per_writer
            self.mem_rf_ace = self.mem_rf_occ * self.mem_ace_frac
        else:
            assert core.pipeline_latches is not None
            # Stall cycles keep the pipeline latches fully occupied;
            # flowing cycles hold roughly IPC * depth instructions.
            latches = core.pipeline_latches
            latch_slots = float(latches.entries)
            self.latch_bits = float(latches.bits_per_entry)
            self.occ_flow = min(latch_slots, ipc_limit * core.frontend_depth)
            self.occ_stall = latch_slots
            self.occ_fe_small = self.occ_flow * _FE_OCCUPANCY_FACTOR
            self.iq_occ_flow = min(self.iq_size, ipc_limit)
            self.iq_occ_fe = 0.5
            self.iq_occ_stall = self.iq_size
            # Stores pile up behind a stall: the "stall" store-queue
            # occupancy adds this to the flowing one.
            self.store_drain_extra = 2.0 * chars.mix.store * 10.0

        mix = chars.mix.as_dict()
        self.pools = tuple(
            (
                mix.get(pool.instruction_class, 0.0),
                pool.latency,
                float(pool.max_in_flight),
                pool.bits,
            )
            for pool in core.functional_units
        )
        # Loads/stores/branches execute on the integer ALUs for one cycle.
        alu = core.fu_pool(InstructionClass.INT_ALU)
        self.alu_count = float(alu.count)
        self.alu_bits = alu.bits
        self.extra_frac = chars.mix.load + chars.mix.store + chars.mix.branch


def _environment_terms(
    f: PhaseFeatures, share: float, multiplier: float
) -> tuple[float, float]:
    """(L3 misses per instruction, full L3-miss-to-data latency) under
    an LLC share and a DRAM latency multiplier.

    The L3 MPKI is ``chars.l3_mpki_at_share(share)`` restated on the
    features, with the same operations.  Each clamp is the comparison
    a two-argument builtin makes: ``min(a, b)`` is ``b if b < a else
    a`` and ``max(a, b)`` is ``b if b > a else a``.
    """
    if 0.0 > share:  # max(share, 0.0)
        share = 0.0
    if 1.0 < share:  # min(share, 1.0)
        share = 1.0
    m3 = (f.l3_mpki + f.sens_headroom * (1.0 - share)) / 1000.0
    dram_lat = f.l3_lat + f.dram_base * multiplier
    m2 = f.m2
    return (m2 if m2 < m3 else m3), dram_lat


def _fu_occupied(f: PhaseFeatures, ipc: float) -> float:
    """Occupied functional-unit bits per cycle at a given IPC.

    NOPs never occupy a functional unit, so these bits are all ACE.
    """
    occupied = 0.0
    for frac, latency, max_in_flight, bits in f.pools:
        busy_units = ipc * frac * latency
        if max_in_flight < busy_units:
            busy_units = max_in_flight
        occupied += busy_units * bits
    alu_busy = ipc * f.extra_frac
    alu_count = f.alu_count
    occupied += (alu_count if alu_count < alu_busy else alu_busy) * f.alu_bits
    return occupied


#: Per-regime issue-queue and live-register fractions, unrolled for
#: the tails.
_IQ_BASE, _IQ_FE, _IQ_LLC = (_IQ_FRACTION[r] for r in ("base", "fe", "llc"))
_REG_BASE, _REG_FE, _REG_LLC = (
    _REG_LIVE_FRACTION[r] for r in ("base", "fe", "llc")
)


def _big_tail(
    f: PhaseFeatures, share: float, multiplier: float
) -> PhaseAnalysis:
    """The environment-dependent part of a big-core analysis.

    The regime loop is unrolled (base, fe, llc, mem): each regime adds
    its terms to the running totals in the loop's order, skipping a
    regime that takes no cycles (``not t <= 0.0``, the loop's test).
    Clamps are written as comparisons (:func:`_environment_terms`).
    """
    m2 = f.m2
    m3, dram_lat = _environment_terms(f, share, multiplier)
    llc = (m2 - m3) * f.l3_lat * _L3_EXPOSED_BIG
    mem = m3 * dram_lat / f.mlp
    components = (
        f.comp_base, f.comp_resource, f.comp_bpred, f.comp_icache,
        f.comp_l2, llc, mem,
    )
    cpi = sum(components)
    ipc = 1.0 / cpi

    # -- Regime decomposition (cycles per instruction in each regime) --
    t_fe = f.t_fe
    t_base = cpi - mem - t_fe - llc

    rob_size = f.rob_size
    if f.occ_base_fixed:
        occ_base = f.occ_base_const
    else:
        base_interval = t_base / f.fe_events  # base-regime cycles per event
        if base_interval <= f.time_to_fill:
            occ_base = f.refill_occ + f.fill_rate * base_interval / 2.0
        else:
            occ_base = (
                f.ramp_ttf + rob_size * (base_interval - f.time_to_fill)
            ) / base_interval
    occ_llc = (occ_base + rob_size) / 2.0
    occ_fe = occ_base * _FE_OCCUPANCY_FACTOR

    non_nop, load, store = f.non_nop, f.load, f.store
    writer_frac, reg_bits_per_writer = f.writer_frac, f.reg_bits_per_writer
    capped, run_cap = f.run_cap_finite, f.run_cap
    rob_bits, iq_size, iq_bits = f.rob_bits, f.iq_size, f.iq_bits
    lq_size, lq_bits = f.lq_size, f.lq_bits
    sq_size, sq_bits = f.sq_size, f.sq_bits
    ace_rob = ace_iq = ace_lq = ace_sq = ace_rf = 0.0
    occ_rob = occ_iq_bits = occ_lq_bits = occ_sq_bits = occ_rf = 0.0
    # Base, front-end and LLC regimes: no wrong-path share, so the
    # correct-path fraction starts at 1.0 (``1.0 - 0.0``).
    if not t_base <= 0.0:
        weight = t_base / cpi  # fraction of cycles spent in this regime
        correct_path = 1.0
        if occ_base > 0 and capped:
            path_cap = run_cap / occ_base
            if path_cap < 1.0:
                correct_path = path_cap
        ace_frac = non_nop * correct_path
        occ_iq = occ_base * _IQ_BASE
        occ_iq = occ_iq if occ_iq < iq_size else iq_size
        occ_lq = occ_base * load
        occ_lq = occ_lq if occ_lq < lq_size else lq_size
        occ_sq = occ_base * store * _STORE_RESIDENCY
        occ_sq = occ_sq if occ_sq < sq_size else sq_size
        live_regs = occ_base * writer_frac * _REG_BASE
        occ_rob += weight * occ_base * rob_bits
        occ_iq_bits += weight * occ_iq * iq_bits
        occ_lq_bits += weight * occ_lq * lq_bits
        occ_sq_bits += weight * occ_sq * sq_bits
        occ_rf += weight * (live_regs * reg_bits_per_writer)
        ace_rob += weight * occ_base * rob_bits * ace_frac
        ace_iq += weight * occ_iq * iq_bits * ace_frac
        ace_lq += weight * occ_lq * lq_bits * ace_frac
        ace_sq += weight * occ_sq * sq_bits * ace_frac
        ace_rf += weight * (live_regs * reg_bits_per_writer * ace_frac)
    if not t_fe <= 0.0:
        weight = t_fe / cpi
        correct_path = 1.0
        if occ_fe > 0 and capped:
            path_cap = run_cap / occ_fe
            if path_cap < 1.0:
                correct_path = path_cap
        ace_frac = non_nop * correct_path
        occ_iq = occ_fe * _IQ_FE
        occ_iq = occ_iq if occ_iq < iq_size else iq_size
        occ_lq = occ_fe * load
        occ_lq = occ_lq if occ_lq < lq_size else lq_size
        occ_sq = occ_fe * store * _STORE_RESIDENCY
        occ_sq = occ_sq if occ_sq < sq_size else sq_size
        live_regs = occ_fe * writer_frac * _REG_FE
        occ_rob += weight * occ_fe * rob_bits
        occ_iq_bits += weight * occ_iq * iq_bits
        occ_lq_bits += weight * occ_lq * lq_bits
        occ_sq_bits += weight * occ_sq * sq_bits
        occ_rf += weight * (live_regs * reg_bits_per_writer)
        ace_rob += weight * occ_fe * rob_bits * ace_frac
        ace_iq += weight * occ_iq * iq_bits * ace_frac
        ace_lq += weight * occ_lq * lq_bits * ace_frac
        ace_sq += weight * occ_sq * sq_bits * ace_frac
        ace_rf += weight * (live_regs * reg_bits_per_writer * ace_frac)
    if not llc <= 0.0:
        weight = llc / cpi
        correct_path = 1.0
        if occ_llc > 0 and capped:
            path_cap = run_cap / occ_llc
            if path_cap < 1.0:
                correct_path = path_cap
        ace_frac = non_nop * correct_path
        occ_iq = occ_llc * _IQ_LLC
        occ_iq = occ_iq if occ_iq < iq_size else iq_size
        occ_lq = occ_llc * load
        occ_lq = occ_lq if occ_lq < lq_size else lq_size
        occ_sq = occ_llc * store * _STORE_RESIDENCY
        occ_sq = occ_sq if occ_sq < sq_size else sq_size
        live_regs = occ_llc * writer_frac * _REG_LLC
        occ_rob += weight * occ_llc * rob_bits
        occ_iq_bits += weight * occ_iq * iq_bits
        occ_lq_bits += weight * occ_lq * lq_bits
        occ_sq_bits += weight * occ_sq * sq_bits
        occ_rf += weight * (live_regs * reg_bits_per_writer)
        ace_rob += weight * occ_llc * rob_bits * ace_frac
        ace_iq += weight * occ_iq * iq_bits * ace_frac
        ace_lq += weight * occ_lq * lq_bits * ace_frac
        ace_sq += weight * occ_sq * sq_bits * ace_frac
        ace_rf += weight * (live_regs * reg_bits_per_writer * ace_frac)
    # Memory regime: every term but the weight is a feature.
    if not mem <= 0.0:
        weight = mem / cpi
        occ_mem, ace_frac = f.occ_mem, f.mem_ace_frac
        occ_iq, occ_lq, occ_sq = f.mem_iq, f.mem_lq, f.mem_sq
        occ_rob += weight * occ_mem * rob_bits
        occ_iq_bits += weight * occ_iq * iq_bits
        occ_lq_bits += weight * occ_lq * lq_bits
        occ_sq_bits += weight * occ_sq * sq_bits
        occ_rf += weight * f.mem_rf_occ
        ace_rob += weight * occ_mem * rob_bits * ace_frac
        ace_iq += weight * occ_iq * iq_bits * ace_frac
        ace_lq += weight * occ_lq * lq_bits * ace_frac
        ace_sq += weight * occ_sq * sq_bits * ace_frac
        ace_rf += weight * f.mem_rf_ace

    fu = _fu_occupied(f, ipc)
    arch_add = f.arch_add
    return PhaseAnalysis._from_columns(
        ipc, cpi, components, _BIG_STRUCTURES,
        (ace_rob, ace_iq, ace_lq, ace_sq, ace_rf + arch_add, fu),
        (occ_rob, occ_iq_bits, occ_lq_bits, occ_sq_bits, occ_rf + arch_add,
         fu),
        m3, m2,
    )


def _small_tail(
    f: PhaseFeatures, share: float, multiplier: float
) -> PhaseAnalysis:
    """The environment-dependent part of a small-core analysis.

    The regime loop is unrolled (flowing, front-end stall, memory
    stall) like the big core's, and the clamps are comparisons.
    """
    m2 = f.m2
    m3, dram_lat = _environment_terms(f, share, multiplier)
    l2 = f.comp_l2
    llc = (m2 - m3) * f.l3_lat
    mem = m3 * dram_lat / f.mlp
    components = (
        f.comp_base, f.comp_resource, f.comp_bpred, f.comp_icache,
        l2, llc, mem,
    )
    cpi = sum(components)
    ipc = 1.0 / cpi

    t_stall = l2 + llc + mem
    t_fe = f.t_fe
    t_flow = cpi - t_stall - t_fe

    sq_size = f.sq_size
    sq_base = ipc * f.store * _SMALL_STORE_DRAIN
    sq_base = sq_base if sq_base < sq_size else sq_size
    non_nop = f.non_nop
    latch_bits, iq_bits, sq_bits = f.latch_bits, f.iq_bits, f.sq_bits
    ace_pl = ace_iq = ace_sq = 0.0
    occ_pl = occ_iq = occ_sq = 0.0
    # Per regime: latch, issue-queue and store-queue occupancy.
    if not t_flow <= 0.0:
        weight = t_flow / cpi
        occ, iq_occ, sq_occ = f.occ_flow, f.iq_occ_flow, sq_base
        occ_pl += weight * occ * latch_bits
        occ_iq += weight * iq_occ * iq_bits
        occ_sq += weight * sq_occ * sq_bits
        ace_pl += weight * occ * latch_bits * non_nop
        ace_iq += weight * iq_occ * iq_bits * non_nop
        ace_sq += weight * sq_occ * sq_bits * non_nop
    if not t_fe <= 0.0:
        weight = t_fe / cpi
        occ, iq_occ, sq_occ = f.occ_fe_small, f.iq_occ_fe, sq_base * 0.5
        occ_pl += weight * occ * latch_bits
        occ_iq += weight * iq_occ * iq_bits
        occ_sq += weight * sq_occ * sq_bits
        ace_pl += weight * occ * latch_bits * non_nop
        ace_iq += weight * iq_occ * iq_bits * non_nop
        ace_sq += weight * sq_occ * sq_bits * non_nop
    if not t_stall <= 0.0:
        weight = t_stall / cpi
        occ, iq_occ = f.occ_stall, f.iq_occ_stall
        sq_occ = sq_base + f.store_drain_extra
        sq_occ = sq_occ if sq_occ < sq_size else sq_size
        occ_pl += weight * occ * latch_bits
        occ_iq += weight * iq_occ * iq_bits
        occ_sq += weight * sq_occ * sq_bits
        ace_pl += weight * occ * latch_bits * non_nop
        ace_iq += weight * iq_occ * iq_bits * non_nop
        ace_sq += weight * sq_occ * sq_bits * non_nop

    fu = _fu_occupied(f, ipc)
    arch_add = f.arch_add
    return PhaseAnalysis._from_columns(
        ipc, cpi, components, _SMALL_STRUCTURES,
        (ace_pl, ace_iq, ace_sq, arch_add, fu),
        (occ_pl, occ_iq, occ_sq, arch_add, fu),
        m3, m2,
    )


def analyze_features(
    features: PhaseFeatures, env: MemoryEnvironment
) -> PhaseAnalysis:
    """Analyze a phase from its features under one environment."""
    tail = _big_tail if features.kind == "big" else _small_tail
    return tail(features, env.l3_share_fraction, env.dram_latency_multiplier)


def analyze_big_phase(
    chars: "PhaseCharacteristics",
    core: CoreConfig,
    memory: MemoryConfig,
    env: MemoryEnvironment,
) -> PhaseAnalysis:
    """Analyze one phase on the big out-of-order core."""
    if not core.out_of_order:
        raise ValueError("analyze_big_phase requires an out-of-order core")
    return analyze_features(PhaseFeatures(chars, core, memory), env)


def analyze_small_phase(
    chars: "PhaseCharacteristics",
    core: CoreConfig,
    memory: MemoryConfig,
    env: MemoryEnvironment,
) -> PhaseAnalysis:
    """Analyze one phase on the small in-order core."""
    if core.out_of_order:
        raise ValueError("analyze_small_phase requires an in-order core")
    return analyze_features(PhaseFeatures(chars, core, memory), env)


def analyze_phase(
    chars: "PhaseCharacteristics",
    core: CoreConfig,
    memory: MemoryConfig,
    env: MemoryEnvironment,
) -> PhaseAnalysis:
    """Analyze a phase on whichever core type is given."""
    return analyze_features(PhaseFeatures(chars, core, memory), env)


class MechanisticCoreModel(CoreModel):
    """O(1)-per-quantum core model driven by benchmark profiles.

    An analysis is a pure function of (phase, memory environment) for
    a fixed core and memory.  The model keeps each phase's
    :class:`PhaseFeatures` in a per-model table, so an analysis
    evaluates only the environment tail.  The table is keyed by the
    phase's ``id`` and pins the phase object, so a key is never reused
    by a different live object; a hit is confirmed by identity.  It is
    emptied whenever it reaches :data:`FEATURE_TABLE_CAP` entries.
    Environments rarely repeat outside segments the segment step
    replays, so analyses themselves are not kept (docs/performance.md,
    "The random baseline").
    """

    def __init__(self, core: CoreConfig, memory: MemoryConfig | None = None):
        super().__init__(core)
        self.memory = memory if memory is not None else MemoryConfig()
        self._features: dict[int, PhaseFeatures] = {}

    def features(self, chars: "PhaseCharacteristics") -> PhaseFeatures:
        """The environment-independent features of a phase on this core."""
        feat = self._features.get(id(chars))
        if feat is None or feat.chars is not chars:
            if len(self._features) >= FEATURE_TABLE_CAP:
                self._features.clear()
            feat = PhaseFeatures(chars, self.core, self.memory)
            self._features[id(chars)] = feat
        return feat

    def analyze(
        self, chars: "PhaseCharacteristics", env: MemoryEnvironment
    ) -> PhaseAnalysis:
        return analyze_features(self.features(chars), env)

    def run_columns(
        self,
        app: "BenchmarkProfile",
        start_instruction: int,
        cycles: float,
        share: float,
        multiplier: float,
        start_span: tuple["PhaseCharacteristics", int] | None = None,
    ) -> SliceColumns:
        """Advance a profile through a cycle budget, phase by phase,
        under an LLC share and a DRAM latency multiplier (the fields of
        a :class:`~repro.cores.base.MemoryEnvironment`, which the caller
        has checked).

        The one implementation of a mechanistic slice; returns it as
        :data:`SliceColumns`.  ``start_span`` is
        ``app.phase_span(start_instruction)``, for a caller that
        already looked it up.  Each phase entered is analyzed once,
        through its features and the environment tail; the current
        phase and its analysis are kept while the position stays
        inside that phase, so the idle remainder after a chunk looks
        nothing up.
        """
        if cycles <= 0:
            return NO_COLUMNS
        tail = _big_tail if self.core.out_of_order else _small_tail
        # Accumulate per structure column, adding each chunk's terms in
        # the order ``QuantumResult.merged_with`` would, so the totals
        # are bit-identical to merging one result per chunk.  Every
        # analysis of one model has the same structure layout, so the
        # first chunk's fixes the columns.
        committed = 0
        elapsed = 0.0
        structures: tuple[StructureKind, ...] = ()
        ace: list[float] = []
        occupancy: list[float] = []
        dram = l3 = mispredictions = 0.0
        position = start_instruction
        remaining = float(cycles)
        to_phase_end = 0
        # Iterate phase chunks; each chunk is homogeneous, so the phase
        # analysis applies uniformly across it.
        while remaining > 1e-9:
            if to_phase_end == 0:
                if start_span is None:
                    chars, to_phase_end = app.phase_span(position)
                else:
                    chars, to_phase_end = start_span
                    start_span = None
                analysis = tail(self.features(chars), share, multiplier)
                cpi = analysis.cpi
            chunk_cycles = min(remaining, to_phase_end * cpi)
            instructions = int(round(chunk_cycles / cpi))
            if instructions <= 0:
                # Budget too small to commit a single instruction in
                # this phase; consume the remaining cycles idle.
                elapsed += remaining
                break
            chunk_cycles = instructions * cpi
            if structures:
                ace = [
                    total + rate * chunk_cycles
                    for total, rate in zip(ace, analysis.ace_rates)
                ]
                occupancy = [
                    total + rate * chunk_cycles
                    for total, rate in zip(occupancy, analysis.occupancy_rates)
                ]
            else:
                # The first chunk starts the columns.  Most slices have
                # only one, and skipping the zip here measured ~5 %
                # end to end on paper_fig06 (docs/performance.md).
                structures = analysis.structures
                ace = [
                    0.0 + rate * chunk_cycles for rate in analysis.ace_rates
                ]
                occupancy = [
                    0.0 + rate * chunk_cycles
                    for rate in analysis.occupancy_rates
                ]
            committed += instructions
            elapsed += chunk_cycles
            dram += analysis.dram_accesses_per_instruction * instructions
            l3 += analysis.l3_accesses_per_instruction * instructions
            mispredictions += chars.branch_mpki / 1000.0 * instructions
            position += instructions
            to_phase_end -= instructions
            remaining -= chunk_cycles
        return (
            committed, elapsed, structures, ace, occupancy,
            dram, l3, mispredictions,
        )

    def run_cycles(
        self,
        app: "BenchmarkProfile",
        start_instruction: int,
        cycles: float,
        env: MemoryEnvironment,
        start_span: tuple["PhaseCharacteristics", int] | None = None,
    ) -> QuantumResult:
        """:meth:`run_columns` as a :class:`QuantumResult`, for callers
        other than the segment step (isolated runs, validation).  The
        segment step reads the columns directly; a subclass that
        overrides this method is run through it instead, and never
        replays."""
        (instructions, elapsed, structures, ace, occupancy,
         dram, l3, mispredictions) = self.run_columns(
            app, start_instruction, cycles, env.l3_share_fraction,
            env.dram_latency_multiplier, start_span,
        )
        return QuantumResult(
            instructions=instructions,
            cycles=elapsed,
            ace_bit_cycles=dict(zip(structures, ace)),
            occupancy_bit_cycles=dict(zip(structures, occupancy)),
            memory_accesses=dram,
            l3_accesses=l3,
            branch_mispredictions=mispredictions,
        )
