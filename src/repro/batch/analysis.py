"""Batched mechanistic phase analysis over array inputs.

The environment tail of the scalar analyzers rewritten over arrays:
one call evaluates N (:class:`~repro.cores.mechanistic.PhaseFeatures`,
memory-environment) pairs with element-wise numpy float64 ops in
*exactly* the scalar code's association order, so every output
matches the scalar analyzer bit-for-bit (IEEE-754 element-wise ops are
identical to CPython float ops; only re-association could diverge, and
none happens here).

Results come back as a :class:`BatchPhaseAnalysis` with a unified
seven-column structure layout (:data:`STRUCTURE_COLUMNS`); columns a
core type does not have are exactly ``0.0``.  ``row(i)`` rebuilds a
scalar :class:`~repro.cores.mechanistic.PhaseAnalysis` for the
equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config.structures import StructureKind
from repro.cores.mechanistic import (
    _FE_OCCUPANCY_FACTOR,
    _IQ_FRACTION,
    _L3_EXPOSED_BIG,
    _REG_LIVE_FRACTION,
    _SMALL_STORE_DRAIN,
    _STORE_RESIDENCY,
    PhaseAnalysis,
    PhaseFeatures,
)

#: Unified structure-column order of the batched ACE/occupancy arrays.
STRUCTURE_COLUMNS: tuple[StructureKind, ...] = (
    StructureKind.ROB,
    StructureKind.ISSUE_QUEUE,
    StructureKind.LOAD_QUEUE,
    StructureKind.STORE_QUEUE,
    StructureKind.REGISTER_FILE,
    StructureKind.FUNCTIONAL_UNITS,
    StructureKind.PIPELINE_LATCHES,
)

_COL = {kind: i for i, kind in enumerate(STRUCTURE_COLUMNS)}
_ROB, _IQ, _LQ, _SQ, _RF, _FU, _PL = range(7)

#: Dict key order of the scalar analyzers' ace/occupancy dicts, as
#: column indices -- the fold order of ``sum(dict.values())``.
BIG_KEY_COLUMNS = (_ROB, _IQ, _LQ, _SQ, _RF, _FU)
SMALL_KEY_COLUMNS = (_PL, _IQ, _SQ, _RF, _FU)


@dataclass
class BatchPhaseAnalysis:
    """Columnar phase-analysis results for N (features, env) pairs.

    Attributes:
        cpi / ipc: per-pair CPI and IPC.
        ace / occupancy: (N, 7) bit-rate arrays in
            :data:`STRUCTURE_COLUMNS` order.
        dram_pi / l3_pi: per-instruction DRAM / L3 access rates.
        kinds: per-pair core kind ("big"/"small").
    """

    cpi: np.ndarray
    ipc: np.ndarray
    ace: np.ndarray
    occupancy: np.ndarray
    dram_pi: np.ndarray
    l3_pi: np.ndarray
    kinds: tuple[str, ...]

    def row(self, i: int) -> PhaseAnalysis:
        """Rebuild the scalar PhaseAnalysis view of one pair.

        The CPI components are not tracked per-column in the batch
        (only their sum feeds the simulation); the reconstructed
        ``cpi_components`` holds the full CPI under a single key so
        ``PhaseAnalysis.cpi`` still reports the exact batched value.
        """
        keys = (
            BIG_KEY_COLUMNS if self.kinds[i] == "big" else SMALL_KEY_COLUMNS
        )
        ace = {STRUCTURE_COLUMNS[c]: float(self.ace[i, c]) for c in keys}
        occ = {STRUCTURE_COLUMNS[c]: float(self.occupancy[i, c]) for c in keys}
        return PhaseAnalysis(
            ipc=float(self.ipc[i]),
            cpi_components={"total": float(self.cpi[i])},
            ace_bits_per_cycle=ace,
            occupancy_bits_per_cycle=occ,
            dram_accesses_per_instruction=float(self.dram_pi[i]),
            l3_accesses_per_instruction=float(self.l3_pi[i]),
        )


def _gather(feats: Sequence[PhaseFeatures], name: str) -> np.ndarray:
    return np.array([getattr(f, name) for f in feats], dtype=np.float64)


def _miss_and_latency(
    feats: Sequence[PhaseFeatures], shares: np.ndarray, mults: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(m3, dram_lat) under the environments, scalar-op order."""
    share = np.minimum(np.maximum(shares, 0.0), 1.0)
    l3_mpki = _gather(feats, "l3_mpki")
    sens_headroom = _gather(feats, "sens_headroom")
    m3 = (l3_mpki + sens_headroom * (1.0 - share)) / 1000.0
    m3 = np.minimum(m3, _gather(feats, "m2"))
    dram_lat = _gather(feats, "l3_lat") + _gather(feats, "dram_base") * mults
    return m3, dram_lat


def _fu_bits_batch(
    feats: Sequence[PhaseFeatures], ipc: np.ndarray
) -> np.ndarray:
    """Vectorized ``_fu_bits`` (ACE == occupied, as in the scalar).

    All features in one call must share a functional-unit layout (the
    caller groups by core config), so per-pool latency/capacity/bits
    are scalars and only the mix fraction varies per feature.
    """
    occupied = np.zeros(len(feats), dtype=np.float64)
    n_pools = len(feats[0].pools)
    for p in range(n_pools):
        frac = np.array([f.pools[p][0] for f in feats], dtype=np.float64)
        latency = feats[0].pools[p][1]
        max_in_flight = feats[0].pools[p][2]
        bits = feats[0].pools[p][3]
        busy = np.minimum(ipc * frac * latency, max_in_flight)
        occupied = occupied + busy * bits
    extra = _gather(feats, "extra_frac")
    occupied = occupied + (
        np.minimum(ipc * extra, feats[0].alu_count) * feats[0].alu_bits
    )
    return occupied


def _analyze_big(
    feats: Sequence[PhaseFeatures], shares: np.ndarray, mults: np.ndarray
) -> BatchPhaseAnalysis:
    n = len(feats)
    m3, dram_lat = _miss_and_latency(feats, shares, mults)
    m2 = _gather(feats, "m2")
    l3_lat = _gather(feats, "l3_lat")
    comp_llc = (m2 - m3) * l3_lat * _L3_EXPOSED_BIG
    comp_mem = m3 * dram_lat / _gather(feats, "mlp")
    cpi = _gather(feats, "cpi_prefix") + comp_llc + comp_mem
    ipc = 1.0 / cpi

    t_mem = comp_mem
    t_fe = _gather(feats, "t_fe")
    t_llc = comp_llc
    t_base = cpi - t_mem - t_fe - t_llc

    rob_size = _gather(feats, "rob_size")
    fixed = np.array([f.occ_base_fixed for f in feats])
    fe_events = np.where(fixed, 1.0, _gather(feats, "fe_events"))
    base_interval = t_base / fe_events
    time_to_fill = _gather(feats, "time_to_fill")
    refill_occ = _gather(feats, "refill_occ")
    fill_rate = _gather(feats, "fill_rate")
    occ_base_ramp = np.where(
        base_interval <= time_to_fill,
        refill_occ + fill_rate * base_interval / 2.0,
        (_gather(feats, "ramp_ttf") + rob_size * (base_interval - time_to_fill))
        / np.where(base_interval != 0.0, base_interval, 1.0),
    )
    occ_base = np.where(fixed, _gather(feats, "occ_base_const"), occ_base_ramp)
    occ_mem = _gather(feats, "occ_mem")
    occ_llc = (occ_base + rob_size) / 2.0
    occ_fe = occ_base * _FE_OCCUPANCY_FACTOR

    non_nop = _gather(feats, "non_nop")
    wp_mem = _gather(feats, "wp_mem")
    run_cap = _gather(feats, "run_cap")
    run_cap_finite = np.array([f.run_cap_finite for f in feats])
    iq_size = _gather(feats, "iq_size")
    iq_bits = _gather(feats, "iq_bits")
    lq_size = _gather(feats, "lq_size")
    lq_bits = _gather(feats, "lq_bits")
    sq_size = _gather(feats, "sq_size")
    sq_bits = _gather(feats, "sq_bits")
    rob_bits = _gather(feats, "rob_bits")
    load = _gather(feats, "load")
    store = _gather(feats, "store")
    writer_frac = _gather(feats, "writer_frac")
    rbpw = _gather(feats, "reg_bits_per_writer")

    zeros = np.zeros(n, dtype=np.float64)
    ace = np.zeros((n, 7), dtype=np.float64)
    occupancy = np.zeros((n, 7), dtype=np.float64)
    regimes = (
        ("base", t_base, occ_base),
        ("fe", t_fe, occ_fe),
        ("llc", t_llc, occ_llc),
        ("mem", t_mem, occ_mem),
    )
    for regime, t_ci, occ in regimes:
        active = t_ci > 0.0
        weight = np.where(active, t_ci / cpi, 0.0)
        wp = wp_mem if regime == "mem" else zeros
        correct_path = 1.0 - wp
        cap_applies = (occ > 0) & run_cap_finite
        occ_safe = np.where(occ > 0, occ, 1.0)
        correct_path = np.where(
            cap_applies,
            np.minimum(correct_path, run_cap / occ_safe),
            correct_path,
        )
        ace_frac = non_nop * correct_path
        occ_iq = np.minimum(iq_size, occ * _IQ_FRACTION[regime])
        occ_lq = np.minimum(lq_size, occ * load)
        occ_sq = np.minimum(sq_size, occ * store * _STORE_RESIDENCY)
        live_regs = occ * writer_frac * _REG_LIVE_FRACTION[regime]

        def _add(col: int, contribution: np.ndarray, into: np.ndarray) -> None:
            into[:, col] = into[:, col] + np.where(active, contribution, 0.0)

        _add(_ROB, weight * occ * rob_bits, occupancy)
        _add(_IQ, weight * occ_iq * iq_bits, occupancy)
        _add(_LQ, weight * occ_lq * lq_bits, occupancy)
        _add(_SQ, weight * occ_sq * sq_bits, occupancy)
        _add(_RF, weight * (live_regs * rbpw), occupancy)
        _add(_ROB, weight * occ * rob_bits * ace_frac, ace)
        _add(_IQ, weight * occ_iq * iq_bits * ace_frac, ace)
        _add(_LQ, weight * occ_lq * lq_bits * ace_frac, ace)
        _add(_SQ, weight * occ_sq * sq_bits * ace_frac, ace)
        _add(_RF, weight * (live_regs * rbpw * ace_frac), ace)

    arch_add = _gather(feats, "arch_add")
    ace[:, _RF] = ace[:, _RF] + arch_add
    occupancy[:, _RF] = occupancy[:, _RF] + arch_add
    fu = _fu_bits_batch(feats, ipc)
    ace[:, _FU] = fu
    occupancy[:, _FU] = fu

    return BatchPhaseAnalysis(
        cpi=cpi, ipc=ipc, ace=ace, occupancy=occupancy,
        dram_pi=m3, l3_pi=m2, kinds=("big",) * n,
    )


def _analyze_small(
    feats: Sequence[PhaseFeatures], shares: np.ndarray, mults: np.ndarray
) -> BatchPhaseAnalysis:
    n = len(feats)
    m3, dram_lat = _miss_and_latency(feats, shares, mults)
    m2 = _gather(feats, "m2")
    l3_lat = _gather(feats, "l3_lat")
    comp_l2 = _gather(feats, "comp_l2")
    comp_llc = (m2 - m3) * l3_lat
    comp_mem = m3 * dram_lat / _gather(feats, "mlp")  # _SMALL_MLP == 1.0
    cpi = _gather(feats, "cpi_prefix") + comp_llc + comp_mem
    ipc = 1.0 / cpi

    t_stall = comp_l2 + comp_llc + comp_mem
    t_fe = _gather(feats, "t_fe")
    t_flow = cpi - t_stall - t_fe

    latch_bits = _gather(feats, "latch_bits")
    iq_bits = _gather(feats, "iq_bits")
    sq_size = _gather(feats, "sq_size")
    sq_bits = _gather(feats, "sq_bits")
    store = _gather(feats, "store")
    non_nop = _gather(feats, "non_nop")

    sq_base = np.minimum(sq_size, ipc * store * _SMALL_STORE_DRAIN)
    sq_occ = {
        "flow": sq_base,
        "fe": sq_base * 0.5,
        "stall": np.minimum(sq_size, sq_base + _gather(feats, "store_drain_extra")),
    }
    iq_occ = {
        "flow": _gather(feats, "iq_occ_flow"),
        "fe": _gather(feats, "iq_occ_fe"),
        "stall": _gather(feats, "iq_occ_stall"),
    }
    occ_by_regime = {
        "flow": _gather(feats, "occ_flow"),
        "fe": _gather(feats, "occ_fe_small"),
        "stall": _gather(feats, "occ_stall"),
    }

    ace = np.zeros((n, 7), dtype=np.float64)
    occupancy = np.zeros((n, 7), dtype=np.float64)
    arch_add = _gather(feats, "arch_add")
    ace[:, _RF] = arch_add
    occupancy[:, _RF] = arch_add

    regimes = (("flow", t_flow), ("fe", t_fe), ("stall", t_stall))
    for regime, t_ci in regimes:
        active = t_ci > 0.0
        weight = np.where(active, t_ci / cpi, 0.0)
        occ = occ_by_regime[regime]

        def _add(col: int, contribution: np.ndarray, into: np.ndarray) -> None:
            into[:, col] = into[:, col] + np.where(active, contribution, 0.0)

        _add(_PL, weight * occ * latch_bits, occupancy)
        _add(_IQ, weight * iq_occ[regime] * iq_bits, occupancy)
        _add(_SQ, weight * sq_occ[regime] * sq_bits, occupancy)
        _add(_PL, weight * occ * latch_bits * non_nop, ace)
        _add(_IQ, weight * iq_occ[regime] * iq_bits * non_nop, ace)
        _add(_SQ, weight * sq_occ[regime] * sq_bits * non_nop, ace)

    fu = _fu_bits_batch(feats, ipc)
    ace[:, _FU] = fu
    occupancy[:, _FU] = fu

    return BatchPhaseAnalysis(
        cpi=cpi, ipc=ipc, ace=ace, occupancy=occupancy,
        dram_pi=m3, l3_pi=m2, kinds=("small",) * n,
    )


def analyze_phase_batch(
    feats: Sequence[PhaseFeatures],
    shares: Sequence[float] | np.ndarray,
    mults: Sequence[float] | np.ndarray,
) -> BatchPhaseAnalysis:
    """Analyze N (features, environment) pairs in one shot.

    Pairs may mix core kinds and core configs; they are grouped
    internally (the functional-unit term needs a uniform pool layout
    per numpy call) and reassembled in input order.
    """
    if len(feats) == 0:
        empty = np.zeros(0, dtype=np.float64)
        return BatchPhaseAnalysis(
            cpi=empty, ipc=empty,
            ace=np.zeros((0, 7)), occupancy=np.zeros((0, 7)),
            dram_pi=empty, l3_pi=empty, kinds=(),
        )
    shares = np.asarray(shares, dtype=np.float64)
    mults = np.asarray(mults, dtype=np.float64)
    groups: dict[tuple[str, int], list[int]] = {}
    for i, feat in enumerate(feats):
        groups.setdefault((feat.kind, id(feat.core)), []).append(i)

    n = len(feats)
    cpi = np.zeros(n)
    ipc = np.zeros(n)
    ace = np.zeros((n, 7))
    occupancy = np.zeros((n, 7))
    dram_pi = np.zeros(n)
    l3_pi = np.zeros(n)
    kinds: list[str] = [""] * n
    for (kind, _), indices in groups.items():
        sub_feats = [feats[i] for i in indices]
        idx = np.array(indices, dtype=np.intp)
        analyze = _analyze_big if kind == "big" else _analyze_small
        sub = analyze(sub_feats, shares[idx], mults[idx])
        cpi[idx] = sub.cpi
        ipc[idx] = sub.ipc
        ace[idx] = sub.ace
        occupancy[idx] = sub.occupancy
        dram_pi[idx] = sub.dram_pi
        l3_pi[idx] = sub.l3_pi
        for j, i in enumerate(indices):
            kinds[i] = sub.kinds[j]
    return BatchPhaseAnalysis(
        cpi=cpi, ipc=ipc, ace=ace, occupancy=occupancy,
        dram_pi=dram_pi, l3_pi=l3_pi, kinds=tuple(kinds),
    )
