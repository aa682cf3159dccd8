"""Batched sweep driver: advance every run of a sweep together.

:class:`BatchedSweep` executes a batch of independent (machine x
workload mix x scheduler) runs quantum-by-quantum over one
struct-of-arrays :class:`~repro.batch.simstate.SimState`.  Each
scheduler quantum costs a handful of numpy array ops over all lanes
(run x application slots) executing that segment, instead of one
Python mechanistic-model call per application per phase chunk.

The scalar engine (:class:`repro.sim.multicore.MulticoreSimulation`)
stays the reference implementation; this driver replays its exact
float operation sequence per lane:

* the environment-independent part of each phase analysis is frozen
  once per (phase, core, memory) in the sweep's own table of
  :class:`~repro.cores.mechanistic.PhaseFeatures`;
* the environment-dependent tail is evaluated by
  :func:`repro.batch.analysis.analyze_phase_batch` and memoized in a
  growable table keyed by exact (feature id, environment id) pairs --
  interference fixed points repeat bit-for-bit in steady state, so
  the table stops growing after a few quanta;
* scheduling, interference environments, and observations run through
  the *same* scalar classes per run (exact reuse, not a re-model).

Results are therefore byte-identical to the scalar engine for every
supported configuration (see ``docs/batching.md`` for the policy and
the unsupported corners: timelines, run-to-completion accounting,
fault injection).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.ace.counters import AceCounterMode
from repro.batch.analysis import (
    BIG_KEY_COLUMNS,
    SMALL_KEY_COLUMNS,
    analyze_phase_batch,
)
from repro.batch.simstate import NEVER_RAN, SimState
from repro.config.machines import BIG, SMALL, MachineConfig
from repro.cores.mechanistic import MechanisticCoreModel, PhaseFeatures
from repro.memory.interference import ApplicationDemand, InterferenceModel
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.sched.base import PARKED, Observation, Scheduler
from repro.sim.experiment import make_scheduler
from repro.sim.isolated import ReferenceTimes
from repro.sim.multicore import DEFAULT_MAX_QUANTA
from repro.sim.results import AppRunRecord, RunResult
from repro.workloads.characteristics import BenchmarkProfile
from repro.workloads.mixes import WorkloadMix
from repro.workloads.spec2006 import benchmark

_ROB, _IQ, _LQ, _SQ, _RF, _FU, _PL = range(7)


@dataclass(frozen=True)
class BatchRunRequest:
    """One run of a batched sweep (the batched analogue of a RunSpec).

    Attributes:
        machine: the fully built machine configuration.
        benchmarks: benchmark names, one per application.
        scheduler: scheduler name (``repro.sim.experiment`` registry).
        instructions: optional per-benchmark instruction override.
        seed: scheduler seed.  Derived from the run's *content* (the
            spec), never from its batch position, so re-ordering or
            filtering a batch cannot change any run's result.
        counter_mode: ACE counter architecture the scheduler reads.
    """

    machine: MachineConfig
    benchmarks: tuple[str, ...]
    scheduler: str
    instructions: int | None = None
    seed: int = 0
    counter_mode: AceCounterMode = AceCounterMode.FULL


class _AnalysisTable:
    """Growable columnar memo of batched phase analyses."""

    def __init__(self, capacity: int = 1024):
        self.n = 0
        self.cpi = np.empty(capacity, dtype=np.float64)
        self.dram_pi = np.empty(capacity, dtype=np.float64)
        self.l3_pi = np.empty(capacity, dtype=np.float64)
        self.ace = np.empty((capacity, 7), dtype=np.float64)
        self.occ = np.empty((capacity, 7), dtype=np.float64)

    def _reserve(self, extra: int) -> None:
        need = self.n + extra
        capacity = len(self.cpi)
        if need <= capacity:
            return
        while capacity < need:
            capacity *= 2
        for name in ("cpi", "dram_pi", "l3_pi"):
            new = np.empty(capacity, dtype=np.float64)
            new[: self.n] = getattr(self, name)[: self.n]
            setattr(self, name, new)
        for name in ("ace", "occ"):
            new = np.empty((capacity, 7), dtype=np.float64)
            new[: self.n] = getattr(self, name)[: self.n]
            setattr(self, name, new)

    def append(self, batch) -> range:
        """Append a BatchPhaseAnalysis; returns the new row indices."""
        k = len(batch.cpi)
        self._reserve(k)
        lo = self.n
        self.cpi[lo : lo + k] = batch.cpi
        self.dram_pi[lo : lo + k] = batch.dram_pi
        self.l3_pi[lo : lo + k] = batch.l3_pi
        self.ace[lo : lo + k] = batch.ace
        self.occ[lo : lo + k] = batch.occupancy
        self.n += k
        return range(lo, lo + k)


class _Run:
    """Python-level (non-array) state of one run in the batch."""

    __slots__ = (
        "request", "machine", "profiles", "scheduler", "ref_times",
        "counter_full", "interference", "demands",
        "prow_big", "prow_small", "freq_big", "freq_small",
    )

    request: BatchRunRequest
    machine: MachineConfig
    profiles: list[BenchmarkProfile]
    scheduler: Scheduler
    ref_times: list[ReferenceTimes]
    counter_full: bool
    interference: InterferenceModel
    demands: list[ApplicationDemand]
    prow_big: list[int]
    prow_small: list[int]
    freq_big: float
    freq_small: float


class BatchedSweep:
    """Advance a batch of runs together; results in request order."""

    def __init__(
        self,
        requests: Sequence[BatchRunRequest],
        *,
        max_quanta: int = DEFAULT_MAX_QUANTA,
    ):
        self.requests = list(requests)
        self.max_quanta = max_quanta
        self._results: list[RunResult] | None = None
        # Canonicalization registries: equal machines / (name, length)
        # profiles share one object, so feature extraction and the
        # analysis memo hit across runs.
        self._machines: dict[MachineConfig, MachineConfig] = {}
        self._profiles: dict[tuple[str, int | None], BenchmarkProfile] = {}
        self._big_models: dict[int, MechanisticCoreModel] = {}
        self._ref_cache: dict[tuple[int, int], ReferenceTimes] = {}
        # Feature / environment / analysis memo state.  Features are
        # keyed by (chars, core, memory) identity; each pins its three
        # objects, so no key is reused while the sweep lives.
        self._features: list[PhaseFeatures] = []
        self._fid_of: dict[tuple[int, int, int], int] = {}
        self._envs: list[tuple[float, float]] = []
        self._eid_of: dict[tuple[float, float], int] = {}
        self._table = _AnalysisTable()
        self._row_of: dict[int, int] = {}
        # Program table rows, padded to arrays after construction.
        self._prog_rows: dict[tuple[int, int, int], int] = {}
        self._row_bnd: list[list[int]] = []
        self._row_fid: list[list[int]] = []
        self._row_brr: list[list[float]] = []

        self._runs = [self._build_run(req) for req in self.requests]
        self._freeze_program_table()
        self.state = SimState.allocate(
            [[p.instructions for p in run.profiles] for run in self._runs]
        )

    # -- construction -------------------------------------------------

    def _canon_machine(self, machine: MachineConfig) -> MachineConfig:
        try:
            return self._machines.setdefault(machine, machine)
        except TypeError:  # unhashable custom config: no sharing
            return machine

    def _profile(self, name: str, instructions: int | None) -> BenchmarkProfile:
        key = (name, instructions)
        profile = self._profiles.get(key)
        if profile is None:
            profile = benchmark(name)
            if instructions is not None:
                profile = profile.scaled(instructions)
            self._profiles[key] = profile
        return profile

    def _big_model(self, machine: MachineConfig) -> MechanisticCoreModel:
        model = self._big_models.get(id(machine))
        if model is None:
            model = MechanisticCoreModel(machine.big, machine.memory)
            self._big_models[id(machine)] = model
        return model

    def _reference_times(
        self, machine: MachineConfig, profile: BenchmarkProfile
    ) -> ReferenceTimes:
        key = (id(machine), id(profile))
        ref = self._ref_cache.get(key)
        if ref is None:
            ref = ReferenceTimes.from_models(profile, self._big_model(machine))
            self._ref_cache[key] = ref
        return ref

    def _fid(self, chars, core, memory) -> int:
        key = (id(chars), id(core), id(memory))
        fid = self._fid_of.get(key)
        if fid is None:
            fid = len(self._features)
            self._features.append(PhaseFeatures(chars, core, memory))
            self._fid_of[key] = fid
        return fid

    def _prog_row(self, profile: BenchmarkProfile, core, memory) -> int:
        key = (id(profile), id(core), id(memory))
        row = self._prog_rows.get(key)
        if row is None:
            fids = []
            brr = []
            for _, chars in profile.phases:
                fids.append(self._fid(chars, core, memory))
                brr.append(chars.branch_mpki / 1000.0)
            row = len(self._row_bnd)
            self._row_bnd.append(profile.phase_boundaries())
            self._row_fid.append(fids)
            self._row_brr.append(brr)
            self._prog_rows[key] = row
        return row

    def _build_run(self, request: BatchRunRequest) -> _Run:
        machine = self._canon_machine(request.machine)
        profiles = [
            self._profile(name, request.instructions)
            for name in request.benchmarks
        ]
        if len(profiles) < machine.num_cores:
            raise ValueError(
                f"{machine.name} needs at least {machine.num_cores} "
                f"applications; got {len(profiles)}"
            )
        run = _Run()
        run.request = request
        run.machine = machine
        run.profiles = profiles
        run.scheduler = make_scheduler(
            request.scheduler, machine, len(profiles), request.seed
        )
        run.ref_times = [self._reference_times(machine, p) for p in profiles]
        run.counter_full = request.counter_mode == AceCounterMode.FULL
        run.interference = InterferenceModel(machine.memory)
        run.demands = [ApplicationDemand(0.0, 0.0)] * len(profiles)
        run.prow_big = [
            self._prog_row(p, machine.big, machine.memory) for p in profiles
        ]
        run.prow_small = [
            self._prog_row(p, machine.small, machine.memory) for p in profiles
        ]
        run.freq_big = machine.big.frequency_hz
        run.freq_small = machine.small.frequency_hz
        return run

    def _freeze_program_table(self) -> None:
        rows = len(self._row_bnd)
        max_phases = max((len(f) for f in self._row_fid), default=1)
        self._NTOT = np.array(
            [b[-1] for b in self._row_bnd] or [1], dtype=np.int64
        )
        self._BND = np.empty((rows or 1, max_phases + 1), dtype=np.int64)
        self._FID = np.zeros((rows or 1, max_phases), dtype=np.int64)
        self._BRR = np.zeros((rows or 1, max_phases), dtype=np.float64)
        for r in range(rows):
            bnd = self._row_bnd[r]
            # Pad with the total length: a padded boundary can never be
            # <= pos_mod (pos_mod < ntot), so it never shifts the
            # phase-index count below.
            self._BND[r, : len(bnd)] = bnd
            self._BND[r, len(bnd) :] = bnd[-1]
            self._FID[r, : len(self._row_fid[r])] = self._row_fid[r]
            self._BRR[r, : len(self._row_brr[r])] = self._row_brr[r]
        self._BND1 = self._BND[:, 1:].copy()

    # -- analysis memo ------------------------------------------------

    def _env_id(self, share: float, mult: float) -> int:
        key = (share, mult)
        eid = self._eid_of.get(key)
        if eid is None:
            eid = len(self._envs)
            self._envs.append(key)
            self._eid_of[key] = eid
        return eid

    def _rows_for(self, fids: np.ndarray, eids: np.ndarray) -> np.ndarray:
        """Analysis-table rows for (feature, environment) pairs.

        Keys are exact integer pairs; misses are evaluated in one
        :func:`analyze_phase_batch` call and appended to the table.
        """
        keys = (fids.astype(np.int64) << 32) | eids
        uk = np.unique(keys)
        rowmap = np.empty(len(uk), dtype=np.int64)
        missing: list[int] = []
        for j, key in enumerate(uk.tolist()):
            row = self._row_of.get(key)
            if row is None:
                missing.append(j)
            else:
                rowmap[j] = row
        if missing:
            feats = []
            shares = []
            mults = []
            for j in missing:
                key = int(uk[j])
                feats.append(self._features[key >> 32])
                share, mult = self._envs[key & 0xFFFFFFFF]
                shares.append(share)
                mults.append(mult)
            batch = analyze_phase_batch(feats, shares, mults)
            for j, row in zip(missing, self._table.append(batch)):
                self._row_of[int(uk[j])] = row
                rowmap[j] = row
        return rowmap[np.searchsorted(uk, keys)]

    # -- execution ----------------------------------------------------

    def _advance(
        self,
        prow: np.ndarray,
        eid: np.ndarray,
        pos: np.ndarray,
        budget: np.ndarray,
    ) -> tuple[np.ndarray, ...]:
        """Vectorized phase-chunk loop over the executing lanes.

        Replays :meth:`MechanisticCoreModel.run_cycles` per lane: each
        round commits one homogeneous phase chunk per still-running
        lane, with the scalar loop's exact rounding and accumulation
        order, so every per-lane total is bit-identical.
        """
        lanes = len(pos)
        rem = budget
        instr = np.zeros(lanes, dtype=np.int64)
        ace7 = np.zeros((lanes, 7), dtype=np.float64)
        occ7 = np.zeros((lanes, 7), dtype=np.float64)
        dram = np.zeros(lanes, dtype=np.float64)
        l3 = np.zeros(lanes, dtype=np.float64)
        br = np.zeros(lanes, dtype=np.float64)
        act = rem > 1e-9
        while True:
            idx = np.nonzero(act)[0]
            if idx.size == 0:
                break
            pr = prow[idx]
            pos_mod = pos[idx] % self._NTOT[pr]
            ph = (pos_mod[:, None] >= self._BND1[pr]).sum(axis=1)
            rows = self._rows_for(self._FID[pr, ph], eid[idx])
            cpi = self._table.cpi[rows]
            to_phase_end = self._BND[pr, ph + 1] - pos_mod
            chunk = np.minimum(rem[idx], to_phase_end * cpi)
            # int(round(x)) == np.rint(x): both round half to even.
            count = np.rint(chunk / cpi)
            running = count > 0.0
            # Budget too small for one instruction: idle out the rest.
            stopped = idx[~running]
            rem[stopped] = 0.0
            act[stopped] = False
            go = np.nonzero(running)[0]
            if go.size:
                gi = idx[go]
                n_i = count[go].astype(np.int64)
                gcpi = cpi[go]
                gchunk = n_i * gcpi
                grows = rows[go]
                ace7[gi] += self._table.ace[grows] * gchunk[:, None]
                occ7[gi] += self._table.occ[grows] * gchunk[:, None]
                dram[gi] += self._table.dram_pi[grows] * n_i
                l3[gi] += self._table.l3_pi[grows] * n_i
                br[gi] += self._BRR[pr[go], ph[go]] * n_i
                instr[gi] += n_i
                pos[gi] += n_i
                rem[gi] = rem[gi] - gchunk
                act[gi] = rem[gi] > 1e-9
        return pos, instr, ace7, occ7, dram, l3, br

    @staticmethod
    def _fold(arr: np.ndarray, columns: tuple[int, ...]) -> np.ndarray:
        """Left-fold of ``sum(dict.values())`` in the scalar key order."""
        total = 0.0 + arr[:, columns[0]]
        for c in columns[1:]:
            total = total + arr[:, c]
        return total

    def _run_segment(self, seg: list, q_instr: np.ndarray) -> None:
        """Execute one segment index across the given (run, plan) pairs."""
        st = self.state
        exec_lane: list[int] = []
        exec_budget: list[float] = []
        exec_prow: list[int] = []
        exec_eid: list[int] = []
        exec_big: list[bool] = []
        exec_full: list[bool] = []
        exec_freq: list[float] = []
        exec_dur: list[float] = []
        exec_overhead: list[float] = []
        exec_core: list[int] = []
        exec_migrated: list[bool] = []
        per_run: list[tuple] = []
        for r, plan in seg:
            run = self._runs[r]
            plan.assignment.validate(run.machine)
            duration = plan.fraction * run.machine.quantum_seconds
            envs = run.interference.environments(run.demands)
            lo, hi = st.lanes_of(r)
            jmap: dict[int, int] = {}
            for i in range(hi - lo):
                core = plan.assignment.core_of[i]
                if core == PARKED:
                    continue
                lane = lo + i
                last = int(st.last_core[lane])
                migrated = last != NEVER_RAN and last != core
                overhead = (
                    min(run.machine.migration_overhead_seconds, duration)
                    if migrated
                    else 0.0
                )
                big = run.machine.core_type(core) == BIG
                freq = run.freq_big if big else run.freq_small
                jmap[i] = len(exec_lane)
                exec_lane.append(lane)
                exec_budget.append((duration - overhead) * freq)
                exec_prow.append(run.prow_big[i] if big else run.prow_small[i])
                env = envs[i]
                exec_eid.append(
                    self._env_id(
                        env.l3_share_fraction, env.dram_latency_multiplier
                    )
                )
                exec_big.append(big)
                exec_full.append(run.counter_full)
                exec_freq.append(freq)
                exec_dur.append(duration)
                exec_overhead.append(overhead)
                exec_core.append(core)
                exec_migrated.append(migrated)
            per_run.append((r, run, plan, duration, jmap))

        if exec_lane:
            lanes = np.array(exec_lane, dtype=np.intp)
            pos, instr, ace7, occ7, dram, l3, br = self._advance(
                np.array(exec_prow, dtype=np.intp),
                np.array(exec_eid, dtype=np.int64),
                st.positions[lanes].copy(),
                np.array(exec_budget, dtype=np.float64),
            )
            freq = np.array(exec_freq, dtype=np.float64)
            isbig = np.array(exec_big, dtype=bool)
            full = np.array(exec_full, dtype=bool)
            dur = np.array(exec_dur, dtype=np.float64)
            ace_big = self._fold(ace7, BIG_KEY_COLUMNS)
            ace_small = self._fold(ace7, SMALL_KEY_COLUMNS)
            ace_total = np.where(isbig, ace_big, ace_small)
            occ_total = np.where(
                isbig,
                self._fold(occ7, BIG_KEY_COLUMNS),
                self._fold(occ7, SMALL_KEY_COLUMNS),
            )
            # repro.ace.counters.measured_abc per lane: small cores
            # report total minus the register file; big cores report
            # the full total (FULL) or the ROB column (ROB_ONLY).
            measured = np.where(
                isbig,
                np.where(full, ace_big, ace7[:, _ROB]),
                ace_small - ace7[:, _RF],
            )
            measured_sec = measured / freq
            st.positions[lanes] = pos
            st.instructions[lanes] += instr
            st.abc_seconds[lanes] += ace_total / freq
            st.occupancy_bit_seconds[lanes] += occ_total / freq
            st.dram_accesses[lanes] += dram
            st.l3_accesses[lanes] += l3
            st.time_big_seconds[lanes[isbig]] += dur[isbig]
            st.instructions_big[lanes[isbig]] += instr[isbig]
            small = ~isbig
            st.time_small_seconds[lanes[small]] += dur[small]
            st.instructions_small[lanes[small]] += instr[small]
            st.migrations[lanes] += np.array(exec_migrated, dtype=np.int64)
            st.last_core[lanes] = np.array(exec_core, dtype=np.int64)
            q_instr[lanes] += instr

        for r, run, plan, duration, jmap in per_run:
            lo, hi = st.lanes_of(r)
            observations = []
            new_demands = list(run.demands)
            for i in range(hi - lo):
                core = plan.assignment.core_of[i]
                if core == PARKED:
                    observations.append(
                        Observation(i, core, "parked", 0.0, 0, 0.0)
                    )
                    new_demands[i] = ApplicationDemand(0.0, 0.0)
                    continue
                j = jmap[i]
                l3_acc = float(l3[j])
                dram_acc = float(dram[j])
                observations.append(
                    Observation(
                        app_index=i,
                        core_id=core,
                        core_type=BIG if exec_big[j] else SMALL,
                        duration_seconds=duration - exec_overhead[j],
                        instructions=int(instr[j]),
                        measured_abc_seconds=float(measured_sec[j]),
                        l3_accesses=l3_acc,
                        dram_accesses=dram_acc,
                        branch_mispredictions=float(br[j]),
                    )
                )
                new_demands[i] = ApplicationDemand(
                    l3_accesses_per_second=l3_acc / duration,
                    dram_accesses_per_second=dram_acc / duration,
                )
            run.demands = new_demands
            run.scheduler.observe(plan, observations)
            st.now[r] += duration

    def step(self) -> bool:
        """Advance every active run by one quantum; False when done."""
        st = self.state
        run_idxs = [r for r in range(st.num_runs) if st.active[r]]
        if not run_idxs:
            return False
        plans_by_run: dict[int, list] = {}
        for r in run_idxs:
            if st.quantum[r] >= self.max_quanta:
                raise RuntimeError(
                    f"simulation exceeded {self.max_quanta} quanta"
                )
            with obs_tracing.span("sched.plan_quantum"):
                plans = self._runs[r].scheduler.plan_quantum(
                    int(st.quantum[r])
                )
            total_fraction = sum(p.fraction for p in plans)
            if not math.isclose(total_fraction, 1.0, abs_tol=1e-9):
                raise ValueError(
                    f"quantum segments cover {total_fraction}, expected 1.0"
                )
            plans_by_run[r] = plans
        q_instr = np.zeros(st.num_lanes, dtype=np.int64)
        max_segments = max(len(p) for p in plans_by_run.values())
        for s in range(max_segments):
            seg = [
                (r, plans_by_run[r][s])
                for r in run_idxs
                if s < len(plans_by_run[r])
            ]
            self._run_segment(seg, q_instr)
        reg = obs_metrics.ACTIVE
        for r in run_idxs:
            lo, hi = st.lanes_of(r)
            if reg is not None:
                reg.histogram("sim.quantum_instructions").observe(
                    float(int(q_instr[lo:hi].sum()))
                )
            st.quantum[r] += 1
            if bool(
                np.all(
                    st.positions[lo:hi] >= st.profile_instructions[lo:hi]
                )
            ):
                st.active[r] = False
        return True

    def run(self) -> list[RunResult]:
        """Run every request to completion; results in request order."""
        if self._results is None:
            with obs_tracing.span("batch.sweep"):
                while self.step():
                    pass
            self._results = [
                self._finalize(r) for r in range(self.state.num_runs)
            ]
        return self._results

    def _finalize(self, r: int) -> RunResult:
        st = self.state
        run = self._runs[r]
        lo, hi = st.lanes_of(r)
        now = float(st.now[r])
        records = []
        for i, profile in enumerate(run.profiles):
            lane = lo + i
            position = int(st.positions[lane])
            records.append(
                AppRunRecord(
                    name=profile.name,
                    instructions=int(st.instructions[lane]),
                    time_seconds=now,
                    abc_seconds=float(st.abc_seconds[lane]),
                    occupancy_bit_seconds=float(
                        st.occupancy_bit_seconds[lane]
                    ),
                    reference_time_seconds=run.ref_times[i].seconds_for(
                        position
                    ),
                    time_big_seconds=float(st.time_big_seconds[lane]),
                    time_small_seconds=float(st.time_small_seconds[lane]),
                    instructions_big=int(st.instructions_big[lane]),
                    instructions_small=int(st.instructions_small[lane]),
                    dram_accesses=float(st.dram_accesses[lane]),
                    l3_accesses=float(st.l3_accesses[lane]),
                    migrations=int(st.migrations[lane]),
                    completed_runs=position // profile.instructions,
                )
            )
        result = RunResult(
            machine_name=run.machine.name,
            scheduler_name=run.request.scheduler,
            quanta=int(st.quantum[r]),
            duration_seconds=now,
            apps=records,
        )
        reg = obs_metrics.ACTIVE
        if reg is not None:
            self._record_metrics(reg, result)
        return result

    @staticmethod
    def _record_metrics(reg, result: RunResult) -> None:
        # Mirrors MulticoreSimulation._record_metrics: batched sweeps
        # feed the same obs series with the same per-run totals.
        reg.counter("sim.runs").inc()
        reg.counter("sim.quanta").inc(result.quanta)
        reg.gauge("sim.apps").set(len(result.apps))
        for rec in result.apps:
            reg.counter("sim.instructions", core="big").inc(
                rec.instructions_big
            )
            reg.counter("sim.instructions", core="small").inc(
                rec.instructions_small
            )
            reg.counter("sched.migrations").inc(rec.migrations)


def run_workload_batch(
    requests: Sequence[BatchRunRequest],
) -> list[RunResult]:
    """Run a batch of fully-specified requests; results in order."""
    return BatchedSweep(requests).run()


def run_workloads_batched(
    machine: MachineConfig,
    workloads: Sequence[WorkloadMix | Sequence[str]],
    scheduler_names: Sequence[str] = ("random", "performance", "reliability"),
    *,
    instructions: int | None = None,
    counter_mode: AceCounterMode = AceCounterMode.FULL,
) -> dict[str, list[RunResult]]:
    """Batched equivalent of :func:`repro.sim.experiment.sweep`.

    Builds the same (workload x scheduler) grid with the same
    content-derived seeds (the workload's index in ``workloads``) and
    runs it as one fused :class:`BatchedSweep`.  Returns
    ``{scheduler_name: [RunResult per workload, in order]}``.
    """
    requests = []
    for index, mix in enumerate(workloads):
        names = mix.benchmarks if isinstance(mix, WorkloadMix) else tuple(mix)
        for name in scheduler_names:
            requests.append(
                BatchRunRequest(
                    machine=machine,
                    benchmarks=names,
                    scheduler=name,
                    instructions=instructions,
                    seed=index,
                    counter_mode=counter_mode,
                )
            )
    flat = BatchedSweep(requests).run()
    results: dict[str, list[RunResult]] = {n: [] for n in scheduler_names}
    for request, result in zip(requests, flat):
        results[request.scheduler].append(result)
    return results


# -- engine integration ----------------------------------------------

from repro.runtime.engine import ExecutionEngine, Job  # noqa: E402
from repro.runtime.events import JobStarted  # noqa: E402
from repro.runtime.retry import FailurePolicy  # noqa: E402
from repro.sim.serialize import run_result_to_dict, save_run  # noqa: E402


class BatchedExecutionEngine(ExecutionEngine):
    """ExecutionEngine that fuses all uncached jobs into one sweep.

    Drop-in for :class:`~repro.runtime.engine.ExecutionEngine` in
    ``Campaign``/``experiment.sweep``: cache loads, result stores,
    checks, events, and checkpointing are inherited unchanged; only
    the execute step changes, running every uncached job through one
    :class:`BatchedSweep` instead of per-job worker processes.

    Unsupported engine features are rejected up front: per-job
    ``retry``/``timeout_seconds``/``fault_plan`` have no meaning for a
    fused batch (the batched path has no per-job failure domain).
    With ``metrics=True`` the whole batch runs under one registry and
    the combined snapshot is attached to the batch's first job; merged
    totals equal the scalar engine's (snapshots merge commutatively),
    only the per-job attribution is coarser.
    """

    def __init__(self, jobs: int = 1, **kwargs):
        for name in ("retry", "timeout_seconds", "fault_plan"):
            if kwargs.pop(name, None) is not None:
                raise ValueError(
                    f"BatchedExecutionEngine does not support {name!r}: "
                    "the batched driver executes jobs as one fused sweep"
                )
        super().__init__(jobs, **kwargs)

    def _run_serial(self, jobs_list: Sequence[Job], outcomes: dict) -> None:
        self._run_batched(jobs_list, outcomes)

    def _run_parallel(self, jobs_list: Sequence[Job], outcomes: dict) -> None:
        self._run_batched(jobs_list, outcomes)

    def _run_batched(self, jobs_list: Sequence[Job], outcomes: dict) -> None:
        self._batch_started = time.perf_counter()
        requests = []
        for job in jobs_list:
            machine = (
                job.machine
                if job.machine is not None
                else job.spec.build_machine()
            )
            requests.append(
                BatchRunRequest(
                    machine=machine,
                    benchmarks=job.spec.benchmarks,
                    scheduler=job.spec.scheduler,
                    instructions=job.spec.instructions,
                    seed=job.spec.seed,
                    counter_mode=AceCounterMode(job.spec.counter_mode),
                )
            )
        remaining = len(jobs_list)
        for job in jobs_list:
            remaining -= 1
            self._observe_queue(
                time.perf_counter() - self._batch_started, remaining
            )
            self._emit(JobStarted(index=job.index, label=job.label))
        started = time.perf_counter()
        try:
            with obs_tracing.span("runtime.execute_batch"):
                if self.metrics:
                    with obs_metrics.collecting() as registry:
                        with registry.timer("runtime.job_seconds"):
                            results = BatchedSweep(requests).run()
                    metrics_data = registry.snapshot().to_dict()
                else:
                    results = BatchedSweep(requests).run()
                    metrics_data = None
        except Exception as error:
            wall = time.perf_counter() - started
            message = f"{type(error).__name__}: {error}"
            fail_fast = self.failure_policy is FailurePolicy.FAIL_FAST
            for position, job in enumerate(jobs_list):
                if position == 0:
                    self._record_failure(job, message, 1, wall, outcomes)
                elif fail_fast:
                    self._record_failure(
                        job, "skipped (fail-fast abort)", 0, 0.0, outcomes
                    )
                else:
                    self._record_failure(job, message, 1, 0.0, outcomes)
            return
        batch_wall = time.perf_counter() - started
        per_wall = batch_wall / len(jobs_list) if jobs_list else 0.0
        aborted = False
        for position, (job, result) in enumerate(zip(jobs_list, results)):
            if aborted:
                self._record_failure(
                    job, "skipped (fail-fast abort)", 0, 0.0, outcomes
                )
                continue
            if job.cache_path is not None:
                save_run(result, job.cache_path)
            ok = self._record_success(
                job,
                run_result_to_dict(result),
                1,
                per_wall,
                outcomes,
                metrics_data if position == 0 else None,
            )
            if not ok and self.failure_policy is FailurePolicy.FAIL_FAST:
                aborted = True
