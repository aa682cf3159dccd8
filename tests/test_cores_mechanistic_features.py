"""The shared phase-feature table and the scalar environment tail.

``analyze_big_phase``/``analyze_small_phase`` are now
``PhaseFeatures(chars, core, memory)`` plus an environment tail with
its regime loop unrolled, and a ``MechanisticCoreModel`` keeps a
per-model feature table so an analysis runs only the tail.  The tail
returns ``cpi`` and the rate columns and builds the analysis's three
maps when they are first read.  The monolithic analyzers they replaced
are kept below verbatim (renamed ``parent_*``) and every result must
equal theirs with ``==``, dict key order included: the goldens and the
benchmark digests pin outputs byte for byte.
"""

from __future__ import annotations

import dataclasses
import linecache
import math
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import machine_1b3s, machine_2b2s, machine_4b4s
from repro.config.cores import CoreConfig
from repro.config.machines import MemoryConfig
from repro.config.structures import StructureConfig, StructureKind
from repro.cores.base import MemoryEnvironment
from repro.cores.mechanistic import (
    _ARCH_REG_LIVE_FRACTION,
    _BACKEND_SLACK,
    _CORRECT_PATH_RUN_FACTOR,
    _FE_OCCUPANCY_FACTOR,
    _ICACHE_EXTRA,
    _INORDER_ILP_EFFICIENCY,
    _IQ_FRACTION,
    _L1D_HIT_EXTRA,
    _L2_EXPOSED_BIG,
    _L3_EXPOSED_BIG,
    _MEM_OCCUPANCY_FACTOR,
    _REFILL_OCCUPANCY,
    _REG_LIVE_FRACTION,
    _SMALL_MLP,
    _SMALL_STORE_DRAIN,
    _STORE_RESIDENCY,
    _WRONG_PATH_WINDOW_FRACTION,
    FEATURE_TABLE_CAP,
    MechanisticCoreModel,
    PhaseAnalysis,
    PhaseFeatures,
    _environment_terms,
    analyze_big_phase,
    analyze_features,
    analyze_phase,
    analyze_small_phase,
)
from repro.isa.instruction import FP_WRITERS, INT_WRITERS, InstructionClass
from repro.workloads.characteristics import InstructionMix, PhaseCharacteristics
from repro.workloads.spec2006 import SUITE

# -- The parent's monolithic analyzers, kept verbatim ------------------

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


def parent_analyze_big_phase(
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


def parent_analyze_small_phase(
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


def parent_analyze(chars, core, memory, env):
    if core.out_of_order:
        return parent_analyze_big_phase(chars, core, memory, env)
    return parent_analyze_small_phase(chars, core, memory, env)


# -- Shared fixtures ---------------------------------------------------

MACHINES = {
    "2B2S": machine_2b2s(),
    "1B3S": machine_1b3s(),
    "4B4S": machine_4b4s(),
}
CORES = [
    (name, core_type, getattr(machine, core_type), machine.memory)
    for name, machine in MACHINES.items()
    for core_type in ("big", "small")
]
SUITE_PHASES = [chars for prof in SUITE.values() for _, chars in prof.phases]

#: 6 LLC shares x 5 DRAM multipliers, the isolated (1.0, 1.0) included.
ENVIRONMENTS = [
    MemoryEnvironment(share, multiplier)
    for share in (1.0, 0.8, 0.5, 0.33, 0.1, 0.02)
    for multiplier in (1.0, 1.0000001, 1.3, 2.0, 4.5)
]


def _analysis_fields(analysis):
    """Every field of a PhaseAnalysis, dicts as ordered item lists."""
    return (
        analysis.ipc,
        list(analysis.cpi_components.items()),
        list(analysis.ace_bits_per_cycle.items()),
        list(analysis.occupancy_bits_per_cycle.items()),
        analysis.dram_accesses_per_instruction,
        analysis.l3_accesses_per_instruction,
    )


def _entry_point(core):
    return analyze_big_phase if core.out_of_order else analyze_small_phase


@st.composite
def _phases(draw):
    """Phase characteristics over every branch of the occupancy model.

    Zero branch and I-cache miss rates reach the infinite run cap and
    the fixed ROB fill; long dependency distances reach the fetch-bound
    state; an L3 rate equal to the L2 rate has no headroom to grow.
    """
    rates = st.one_of(st.just(0.0), st.floats(0.0, 40.0))
    fractions = st.one_of(st.just(1.0), st.floats(0.0, 1.0))
    mix = draw(st.sampled_from(SUITE_PHASES)).mix
    l1d = draw(rates)
    l2 = l1d * draw(fractions)
    return PhaseCharacteristics(
        mix=mix,
        dep_distance_mean=draw(st.floats(1.0, 64.0)),
        branch_mpki=min(draw(rates), 1000.0 * mix.branch),
        icache_mpki=draw(rates),
        l1d_mpki=l1d,
        l2_mpki=l2,
        l3_mpki=l2 * draw(fractions),
        cache_sensitivity=draw(st.floats(0.0, 1.0)),
        mlp=draw(st.floats(1.0, 8.0)),
        branch_depends_on_load_prob=draw(st.floats(0.0, 1.0)),
    )


class TestParentEquality:
    def test_every_suite_phase_core_and_environment(self):
        """All 29 profiles x big/small of 2B2S, 1B3S, 4B4S x 30 envs."""
        assert len(SUITE) == 29
        pairs = 0
        for _, _, core, memory in CORES:
            model = MechanisticCoreModel(core, memory)
            entry = _entry_point(core)
            for chars in SUITE_PHASES:
                feat = PhaseFeatures(chars, core, memory)
                for env in ENVIRONMENTS:
                    expected = _analysis_fields(
                        parent_analyze(chars, core, memory, env)
                    )
                    assert _analysis_fields(
                        entry(chars, core, memory, env)
                    ) == expected
                    assert _analysis_fields(
                        analyze_phase(chars, core, memory, env)
                    ) == expected
                    assert _analysis_fields(
                        analyze_features(feat, env)
                    ) == expected
                    assert _analysis_fields(
                        model.analyze(chars, env)
                    ) == expected
                    pairs += 1
        assert pairs == len(CORES) * len(SUITE_PHASES) * len(ENVIRONMENTS)

    @settings(max_examples=300, deadline=None)
    @given(
        chars=_phases(),
        core_index=st.integers(0, len(CORES) - 1),
        share=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
        multiplier=st.one_of(st.just(1.0), st.floats(1.0, 8.0)),
    )
    def test_drawn_phases(self, chars, core_index, share, multiplier):
        _, _, core, memory = CORES[core_index]
        env = MemoryEnvironment(share, multiplier)
        expected = _analysis_fields(parent_analyze(chars, core, memory, env))
        assert _analysis_fields(
            _entry_point(core)(chars, core, memory, env)
        ) == expected
        assert _analysis_fields(
            MechanisticCoreModel(core, memory).analyze(chars, env)
        ) == expected

    def test_occupancy_branches_are_reached(self):
        big = MACHINES["2B2S"].big
        memory = MACHINES["2B2S"].memory
        fetch_bound = PhaseFeatures(
            PhaseCharacteristics(dep_distance_mean=64.0), big, memory
        )
        no_events = PhaseFeatures(
            PhaseCharacteristics(branch_mpki=0.0, icache_mpki=0.0),
            big, memory,
        )
        ramp = PhaseFeatures(PhaseCharacteristics(), big, memory)
        assert fetch_bound.fill_rate <= 1e-12 and fetch_bound.occ_base_fixed
        assert no_events.occ_base_const == no_events.rob_size
        assert not no_events.run_cap_finite
        assert not ramp.occ_base_fixed and ramp.run_cap_finite

    def test_core_type_checks_are_kept(self):
        machine = MACHINES["2B2S"]
        chars = SUITE_PHASES[0]
        env = ENVIRONMENTS[0]
        with pytest.raises(ValueError, match="out-of-order core"):
            analyze_big_phase(chars, machine.small, machine.memory, env)
        with pytest.raises(ValueError, match="in-order core"):
            analyze_small_phase(chars, machine.big, machine.memory, env)

    def test_derived_values_match_the_dicts(self):
        _, _, core, memory = CORES[0]
        analysis = analyze_phase(SUITE_PHASES[3], core, memory, ENVIRONMENTS[7])
        assert analysis.cpi == sum(analysis.cpi_components.values())
        assert analysis.structures == tuple(analysis.ace_bits_per_cycle)
        assert analysis.structures == tuple(analysis.occupancy_bits_per_cycle)
        assert analysis.ace_rates == tuple(analysis.ace_bits_per_cycle.values())
        assert analysis.occupancy_rates == tuple(
            analysis.occupancy_bits_per_cycle.values()
        )


class TestLazyMaps:
    """The tails compute ``cpi`` and the rate columns directly and
    build the three maps only when read; every value, and the maps'
    key order, must still be the parent's."""

    def test_columns_and_maps_match_the_parent(self):
        for _, _, core, memory in CORES:
            for chars in SUITE_PHASES[::3]:
                for env in ENVIRONMENTS[::7]:
                    parent = parent_analyze(chars, core, memory, env)
                    fresh = analyze_phase(chars, core, memory, env)
                    assert fresh._cpi_components is None
                    assert fresh._ace is None and fresh._occupancy is None
                    assert fresh.ipc == parent.ipc
                    assert fresh.cpi == parent.cpi
                    assert fresh.structures == parent.structures
                    assert fresh.ace_rates == parent.ace_rates
                    assert fresh.occupancy_rates == parent.occupancy_rates
                    assert fresh.total_ace_bits_per_cycle == (
                        sum(parent.ace_bits_per_cycle.values())
                    )
                    # Built on first read, in any order, then kept.
                    occupancy = fresh.occupancy_bits_per_cycle
                    assert list(occupancy.items()) == list(
                        parent.occupancy_bits_per_cycle.items()
                    )
                    assert list(fresh.ace_bits_per_cycle.items()) == list(
                        parent.ace_bits_per_cycle.items()
                    )
                    assert list(fresh.cpi_components.items()) == list(
                        parent.cpi_components.items()
                    )
                    assert fresh.occupancy_bits_per_cycle is occupancy
                    assert fresh.cpi == sum(fresh.cpi_components.values())

    def test_equality_hash_and_repr(self):
        _, _, core, memory = CORES[1]
        chars = SUITE_PHASES[4]
        parent = parent_analyze(chars, core, memory, ENVIRONMENTS[9])
        fresh = analyze_phase(chars, core, memory, ENVIRONMENTS[9])
        other = analyze_phase(chars, core, memory, ENVIRONMENTS[10])
        assert fresh == parent and parent == fresh
        assert fresh != other
        assert fresh != _analysis_fields(fresh)
        assert repr(fresh) == repr(parent)
        assert repr(fresh).startswith(
            f"PhaseAnalysis(ipc={fresh.ipc!r}, cpi_components={{'base': "
        )
        with pytest.raises(TypeError):
            hash(fresh)


class _CappedFeatureModel(MechanisticCoreModel):
    """Records the largest feature table seen after any lookup."""

    max_features = 0

    def features(self, chars):
        feat = super().features(chars)
        self.max_features = max(self.max_features, len(self._features))
        return feat


class TestFeatureTable:
    def test_never_exceeds_the_cap(self):
        machine = MACHINES["2B2S"]
        model = _CappedFeatureModel(machine.small, machine.memory)
        env = ENVIRONMENTS[4]
        phases = [
            PhaseCharacteristics(dep_distance_mean=1.0 + i)
            for i in range(2 * FEATURE_TABLE_CAP + 7)
        ]
        for chars in phases:
            assert _analysis_fields(model.analyze(chars, env)) == (
                _analysis_fields(
                    parent_analyze(chars, model.core, model.memory, env)
                )
            )
        assert model.max_features == FEATURE_TABLE_CAP
        # Emptied twice, then refilled by the last seven phases.
        assert len(model._features) == 7

    def test_hit_returns_the_same_features(self):
        model = MechanisticCoreModel(MACHINES["2B2S"].big, MemoryConfig())
        chars = SUITE_PHASES[5]
        feat = model.features(chars)
        assert model.features(chars) is feat
        # An analysis under a new environment reuses the features.
        model.analyze(chars, ENVIRONMENTS[1])
        model.analyze(chars, ENVIRONMENTS[2])
        assert model._features == {id(chars): feat}

    def test_reused_id_misses(self):
        machine = MACHINES["4B4S"]
        model = MechanisticCoreModel(machine.big, machine.memory)
        dead = PhaseCharacteristics(branch_mpki=1.0)
        live = PhaseCharacteristics(branch_mpki=9.0, l3_mpki=2.0)
        env = MemoryEnvironment(0.5, 2.0)
        # The state an id-only key would reach once ``dead`` died and
        # ``live`` took its address.
        model._features[id(live)] = PhaseFeatures(
            dead, model.core, model.memory
        )
        assert _analysis_fields(model.analyze(live, env)) == _analysis_fields(
            parent_analyze(live, model.core, model.memory, env)
        )
        assert model._features[id(live)].chars is live

    def test_fresh_object_at_a_freed_address(self):
        machine = MACHINES["1B3S"]
        model = MechanisticCoreModel(machine.small, machine.memory)
        env = MemoryEnvironment(0.75, 1.5)
        for value in range(1, 40):
            phase = PhaseCharacteristics(l1d_mpki=3.0 * value)
            assert _analysis_fields(model.analyze(phase, env)) == (
                _analysis_fields(
                    parent_analyze(phase, model.core, model.memory, env)
                )
            )
            del phase

    @pytest.mark.parametrize("core_type", ["big", "small"])
    def test_warm_and_cleared_models_agree(self, core_type):
        machine = MACHINES["2B2S"]
        core = getattr(machine, core_type)
        warm = MechanisticCoreModel(core, machine.memory)
        cleared = MechanisticCoreModel(core, machine.memory)
        for app in list(SUITE.values())[:12]:
            app = app.scaled(3_000_000)
            position = 0
            for env in ENVIRONMENTS[::3]:
                cleared._features.clear()
                expected = cleared.run_cycles(app, position, 4e5, env)
                got = warm.run_cycles(app, position, 4e5, env)
                assert got == expected
                assert list(got.ace_bit_cycles) == list(
                    expected.ace_bit_cycles
                )
                position += got.instructions
        assert warm._features


# -- Inlined clamps ----------------------------------------------------

#: The parent analyzers' two-argument clamps that the environment tails
#: write as comparisons, by source line.  The big core's regime loop is
#: unrolled, so its clamps count once per regime, except the memory
#: regime's, which are features.
_TAIL_CLAMPS = {
    ("return m1, m2, min(m3, m2)", None),
    ("busy_units = min(ipc * frac * pool.latency, "
     "float(pool.max_in_flight))", None),
    ("occupied += min(ipc * extra_frac, float(alu.count)) * alu.bits", None),
    *(
        (line, regime)
        for line in (
            "correct_path = min(correct_path, run_cap / occ)",
            "occ_iq = min(iq_size, occ * _IQ_FRACTION[regime])",
            "occ_lq = min(lq_size, occ * chars.mix.load)",
            "occ_sq = min(sq_size, occ * chars.mix.store * _STORE_RESIDENCY)",
        )
        for regime in ("base", "fe", "llc")
    ),
    ("sq_base = min(sq_size, ipc * chars.mix.store * _SMALL_STORE_DRAIN)",
     None),
    ('"stall": min(sq_size, sq_base + 2.0 * chars.mix.store * 10.0)}', None),
}


def _record_clamps(monkeypatch):
    """Shadow ``min``/``max`` in this module, so the parent analyzers'
    two-argument calls record which side won, per call site (source
    line, and the big core's regime): ``"first"`` when the first
    argument is strictly the result, ``"second"`` when the second is,
    ``"tie"`` otherwise."""
    outcomes: dict[tuple[str, str | None], set[str]] = {}

    def recording(builtin, second_wins, first_wins):
        def clamp(*args):
            if len(args) == 2:
                a, b = args
                frame = sys._getframe(1)
                line = linecache.getline(
                    frame.f_code.co_filename, frame.f_lineno
                ).strip()
                regime = None
                if frame.f_code.co_name == "parent_analyze_big_phase":
                    regime = frame.f_locals.get("regime")
                side = (
                    "second" if second_wins(a, b)
                    else "first" if first_wins(a, b) else "tie"
                )
                outcomes.setdefault((line, regime), set()).add(side)
            return builtin(*args)
        return clamp

    module = sys.modules[__name__]
    monkeypatch.setattr(
        module, "min",
        recording(min, lambda a, b: b < a, lambda a, b: a < b),
        raising=False,
    )
    monkeypatch.setattr(
        module, "max",
        recording(max, lambda a, b: b > a, lambda a, b: a > b),
        raising=False,
    )
    return outcomes


def _tight(core: CoreConfig, entries: int) -> CoreConfig:
    """A core whose queues hold ``entries`` each (and, on the small
    core, with one integer ALU), so occupancy reaches their sizes."""
    queues = {
        "issue_queue": StructureConfig(
            StructureKind.ISSUE_QUEUE, entries, core.issue_queue.bits_per_entry
        ),
        "store_queue": StructureConfig(
            StructureKind.STORE_QUEUE, entries, core.store_queue.bits_per_entry
        ),
    }
    if core.out_of_order:
        queues["load_queue"] = StructureConfig(
            StructureKind.LOAD_QUEUE, entries, core.load_queue.bits_per_entry
        )
    else:
        queues["functional_units"] = tuple(
            dataclasses.replace(pool, count=1)
            if pool.instruction_class is InstructionClass.INT_ALU else pool
            for pool in core.functional_units
        )
    return dataclasses.replace(core, **queues)


#: An L3 miss rate a hair above the L2 one (the characteristics allow
#: 1e-9 MPKI of slack): the L3 misses clamp at the L2 misses.
L3_OVER_L2 = PhaseCharacteristics(l2_mpki=3.0, l3_mpki=3.0 + 5e-10)

#: Phases beyond the suite that reach the other side of a clamp.
CLAMP_PHASES = SUITE_PHASES + [
    L3_OVER_L2,
    # Throughput-bound on the divider: its busy units reach the pool's
    # max in flight.
    PhaseCharacteristics(
        mix=InstructionMix(
            nop=0.0, int_alu=0.0, int_mul=0.0, int_div=0.5, load=0.3,
            store=0.2, branch=0.0,
        ),
        branch_mpki=0.0, icache_mpki=0.0, l1d_mpki=0.0, l2_mpki=0.0,
        l3_mpki=0.0, dep_distance_mean=64.0,
    ),
    # A misprediction every four instructions: the run cap binds in
    # the front-end regime.
    PhaseCharacteristics(
        mix=InstructionMix(
            nop=0.0, int_alu=0.3, int_mul=0.0, load=0.2, store=0.2,
            branch=0.3,
        ),
        branch_mpki=250.0, icache_mpki=0.0, l1d_mpki=1.0, l2_mpki=0.5,
        l3_mpki=0.1, dep_distance_mean=2.0,
    ),
    # Loads and stores at full width: queues fill and the integer ALUs
    # saturate with address work.
    PhaseCharacteristics(
        mix=InstructionMix(
            nop=0.0, int_alu=0.1, int_mul=0.0, load=0.4, store=0.4,
            branch=0.1,
        ),
        branch_mpki=0.5, icache_mpki=0.0, l1d_mpki=0.0, l2_mpki=0.0,
        l3_mpki=0.0, dep_distance_mean=64.0,
    ),
]

#: LLC shares near 0 and at 1, with and without bus contention.
CLAMP_ENVIRONMENTS = [
    MemoryEnvironment(share, multiplier)
    for share in (1e-9, 0.3, 1.0)
    for multiplier in (1.0, 3.0)
]


class TestInlinedClamps:
    """The tails write each two-argument ``min``/``max`` as the
    comparison the builtin makes (``min(a, b)`` is ``b if b < a else
    a``, ``max(a, b)`` is ``b if b > a else a``), so ties keep the
    first argument and NaN compares false.  Every such clamp of the
    parent analyzers is driven to both sides here, and every analysis
    must equal the parent's by ``repr``."""

    def test_every_clamp_both_sides(self, monkeypatch):
        memory = MACHINES["2B2S"].memory
        base = MACHINES["2B2S"]
        cores = [base.big, base.small, _tight(base.big, 2), _tight(base.small, 1)]
        outcomes = _record_clamps(monkeypatch)
        for core in cores:
            model = MechanisticCoreModel(core, memory)
            for chars in CLAMP_PHASES:
                for env in CLAMP_ENVIRONMENTS:
                    expected = repr(parent_analyze(chars, core, memory, env))
                    assert repr(analyze_phase(chars, core, memory, env)) == (
                        expected
                    )
                    assert repr(model.analyze(chars, env)) == expected
        for site in sorted(_TAIL_CLAMPS, key=str):
            seen = outcomes.get(site, set())
            if site[0].startswith("busy_units"):
                # A pool's throughput limit caps its busy units at its
                # max in flight, so this clamp binds only at a tie.
                assert {"first", "tie"} <= seen, site
            else:
                assert {"first", "second"} <= seen, site

    @pytest.mark.parametrize(
        "share",
        [-0.5, -0.0, 0.0, 1e-300, 1e-9, 0.5, 1.0, 1.5, math.inf, math.nan],
    )
    def test_share_clamp(self, share):
        """Out-of-range shares cannot reach the tail through a checked
        environment; the clamp still matches ``l3_mpki_at_share``."""
        for _, _, core, memory in CORES[:2]:
            for chars in (SUITE_PHASES[3], L3_OVER_L2):
                features = PhaseFeatures(chars, core, memory)
                env = SimpleNamespace(
                    l3_share_fraction=share, dram_latency_multiplier=2.5
                )
                m3, dram_lat = _environment_terms(features, share, 2.5)
                assert repr(m3) == repr(_miss_rates(chars, env)[2])
                assert repr(dram_lat) == repr(_dram_latency(core, memory, env))


class TestStructureHash:
    def test_identity_hash_is_consistent_with_equality(self):
        for kind in StructureKind:
            assert hash(kind) == object.__hash__(kind)
            assert StructureKind(kind.value) is kind
        rates = {kind: float(i) for i, kind in enumerate(StructureKind)}
        assert [rates[kind] for kind in StructureKind] == [
            float(i) for i in range(len(StructureKind))
        ]
