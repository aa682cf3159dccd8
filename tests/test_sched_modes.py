"""Tests for protection-mode scheduling (none / DMR / checkpoint).

Covers the mode performance/SER models, the (placement x mode) greedy
search, DMR checker-slot legality, the mode=none equivalence contract,
the accounting overlay's conservation, and the uncore (L2/L3) SSER
terms -- plus the sampling-counter APKI rename regression.
"""

import math

import pytest

from repro.ace.uncore import (
    l2_abc_rate,
    l3_abc_rate_estimate,
    run_sser_breakdown,
    uncore_abc,
)
from repro.check import (
    check_decision_trace,
    check_mode_outcome,
    check_mode_schedule,
    fuzz,
)
from repro.config import STANDARD_MACHINES
from repro.config.machines import BIG
from repro.obs.decisions import DecisionTraceRecorder
from repro.sched.base import Observation
from repro.sched.modes import (
    MODE_NONE,
    MODES,
    ModeAwareReliabilityScheduler,
    apply_modes,
    parse_mode,
    protection_abc_rate,
    residual_factor,
    slowdown_factor,
)
from repro.sched.reliability import ReliabilityScheduler
from repro.sched.sampling import CoreTypeSample
from repro.sim.multicore import MulticoreSimulation
from repro.sim.serialize import run_result_to_dict
from repro.workloads.spec2006 import benchmark

QUANTUM = 1e-3


def run_modes(
    machine_name="1B3S",
    names=("soplex", "milc", "namd"),
    instructions=6_000_000,
    allowed_modes=None,
    record=False,
):
    machine = STANDARD_MACHINES[machine_name]()
    profiles = [benchmark(n).scaled(instructions) for n in names]
    scheduler = ModeAwareReliabilityScheduler(
        machine, len(profiles), allowed_modes=allowed_modes
    )
    if record:
        scheduler.recorder = DecisionTraceRecorder()
    result = MulticoreSimulation(machine, profiles, scheduler).run()
    return machine, scheduler, result


class TestModeModels:
    @pytest.mark.parametrize("key", sorted(MODES))
    def test_slowdown_at_least_one(self, key):
        assert slowdown_factor(parse_mode(key), QUANTUM) >= 1.0

    @pytest.mark.parametrize("key", sorted(MODES))
    def test_residual_in_unit_interval(self, key):
        residual = residual_factor(parse_mode(key), QUANTUM)
        assert 0.0 <= residual <= 1.0

    def test_none_is_free_and_unprotected(self):
        assert slowdown_factor(MODE_NONE, QUANTUM) == 1.0
        assert residual_factor(MODE_NONE, QUANTUM) == 1.0
        assert protection_abc_rate(MODE_NONE) == 0.0

    def test_checkpoint_interval_tradeoff(self):
        # Longer intervals amortize the checkpoint cost (less slowdown)
        # but leave a wider vulnerability window (more residual SER).
        intervals = sorted(
            m.interval_quanta for m in MODES.values()
            if m.kind == "checkpoint"
        )
        assert len(intervals) >= 2
        modes = [parse_mode(f"checkpoint@{n}") for n in intervals]
        slowdowns = [slowdown_factor(m, QUANTUM) for m in modes]
        residuals = [residual_factor(m, QUANTUM) for m in modes]
        assert slowdowns == sorted(slowdowns, reverse=True)
        assert residuals == sorted(residuals)

    def test_dmr_suppresses_more_than_any_checkpoint(self):
        dmr = residual_factor(parse_mode("dmr"), QUANTUM)
        for mode in MODES.values():
            if mode.kind == "checkpoint":
                assert dmr < residual_factor(mode, QUANTUM)

    def test_parse_mode_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_mode("tmr")


class TestModeNoneEquivalence:
    def test_mode_none_is_byte_identical_to_reliability(self):
        machine = STANDARD_MACHINES["2B2S"]()
        names = ("soplex", "milc", "namd", "povray")
        profiles = [benchmark(n).scaled(2_000_000) for n in names]

        moded = ModeAwareReliabilityScheduler(
            machine, len(profiles), allowed_modes=("none",)
        )
        moded_result = MulticoreSimulation(machine, profiles, moded).run()
        base = ReliabilityScheduler(machine, len(profiles))
        base_result = MulticoreSimulation(machine, profiles, base).run()

        moded_payload = run_result_to_dict(moded_result)
        base_payload = run_result_to_dict(base_result)
        moded_payload["scheduler_name"] = "reliability"
        base_payload["scheduler_name"] = "reliability"
        assert moded_payload == base_payload
        assert all(
            keys == ("none",) * len(profiles)
            for keys, _ in moded.mode_history
        )


class TestModeSearch:
    def test_protection_gets_used_when_profitable(self):
        _, scheduler, _ = run_modes()
        schedule = scheduler.mode_schedule()
        used = {
            key
            for counts in schedule.quanta_by_app
            for key, quanta in counts.items()
            if quanta > 0
        }
        assert used - {"none"}, "search never engaged a protection mode"

    def test_mode_search_never_worse_than_placement_only(self):
        # Every accepted mode change strictly improved the extended
        # objective, so the final mode vector is never worse than
        # leaving every app unprotected at the same placement.
        _, scheduler, _ = run_modes()
        assignment = scheduler._assignment
        machine = scheduler.machine
        chosen = sum(
            scheduler.mode_objective(
                i,
                assignment.core_type_of(i, machine),
                scheduler._mode_of[i],
            )
            for i in range(scheduler.num_apps)
        )
        unprotected = sum(
            scheduler.mode_objective(
                i, assignment.core_type_of(i, machine), MODE_NONE
            )
            for i in range(scheduler.num_apps)
        )
        assert chosen <= unprotected

    def test_decision_trace_replays_mode_changes(self):
        _, scheduler, _ = run_modes(record=True)
        records = scheduler.recorder.records
        assert any(
            c.kind == "mode" for r in records for c in r.candidates
        )
        report = check_decision_trace(records, label="modes")
        assert report.ok, report.format()


class TestDmrLegality:
    def run_recorded(self, **kwargs):
        from repro.check.differential import _RecordingScheduler

        machine = STANDARD_MACHINES["1B3S"]()
        names = ("soplex", "milc", "namd")
        profiles = [benchmark(n).scaled(6_000_000) for n in names]
        inner = ModeAwareReliabilityScheduler(
            machine, len(profiles), **kwargs
        )
        recording = _RecordingScheduler(inner)
        MulticoreSimulation(machine, profiles, recording).run()
        return machine, inner, recording

    def test_dmr_allocates_a_small_checker_core(self):
        machine, inner, _ = self.run_recorded(
            allowed_modes=("none", "dmr")
        )
        checker_sets = [checkers for _, checkers in inner.mode_history]
        assert any(checker_sets), "DMR was never engaged"
        for checkers in checker_sets:
            for core in checkers:
                assert core >= machine.big_cores

    def test_checker_core_is_never_double_assigned(self):
        machine, inner, recording = self.run_recorded()
        report = check_mode_schedule(
            recording.plans_by_quantum,
            inner.mode_history,
            machine,
            inner.num_apps,
        )
        assert report.ok, report.format()


class TestApplyModes:
    def test_all_none_overlay_matches_base_accounting(self):
        machine, scheduler, result = run_modes(
            allowed_modes=("none",),
        )
        schedule = scheduler.mode_schedule()
        outcome = apply_modes(result, schedule, machine.memory)
        for app, moded in zip(result.apps, outcome.apps):
            assert moded.weights == {"none": 1.0}
            assert moded.moded_time_seconds == app.time_seconds
            assert moded.protection_abc_seconds == 0.0
            assert moded.protection_power_watts == 0.0

    def test_conservation_invariant_holds(self):
        machine, scheduler, result = run_modes()
        schedule = scheduler.mode_schedule()
        outcome = apply_modes(result, schedule, machine.memory)
        report = check_mode_outcome(
            outcome, result, schedule, machine.memory
        )
        assert report.ok, report.format()

    def test_protection_reduces_moded_sser(self):
        machine, scheduler, result = run_modes()
        schedule = scheduler.mode_schedule()
        protected = apply_modes(result, schedule, machine.memory)
        all_none = apply_modes(
            result,
            type(schedule)(
                quanta_by_app=tuple(
                    {"none": sum(c.values())} for c in schedule.quanta_by_app
                ),
                quantum_seconds=schedule.quantum_seconds,
            ),
            machine.memory,
        )
        assert protected.moded_sser < all_none.moded_sser


class TestUncoreSser:
    def test_l3_rate_saturates(self):
        memory = STANDARD_MACHINES["2B2S"]().memory
        assert l3_abc_rate_estimate(memory, 0.0) == 0.0
        low = l3_abc_rate_estimate(memory, 1e3)
        high = l3_abc_rate_estimate(memory, 1e9)
        assert 0.0 < low < high
        assert high <= 8 * memory.l3.size_bytes

    def test_breakdown_components_sum_to_chip(self):
        machine, _, result = run_modes()
        breakdown = run_sser_breakdown(result, machine.memory)
        assert breakdown.core_sser > 0
        assert breakdown.l2_sser > 0
        assert breakdown.l3_sser > 0
        assert breakdown.chip_sser == pytest.approx(
            breakdown.core_sser + breakdown.l2_sser + breakdown.l3_sser
        )
        assert breakdown.uncore_sser == pytest.approx(
            breakdown.l2_sser + breakdown.l3_sser
        )

    def test_l3_residency_splits_by_traffic_share(self):
        machine, _, result = run_modes()
        parts = uncore_abc(result, machine.memory)
        total_l3 = sum(p.l3_abc_seconds for p in parts)
        full_residency = (
            8 * machine.memory.l3.size_bytes
            * result.duration_seconds
            * 0.15
        )
        assert total_l3 == pytest.approx(full_residency)


class TestApkiRenameRegression:
    def test_observation_exposes_accesses_not_misses(self):
        obs = Observation(
            app_index=0,
            core_id=0,
            core_type=BIG,
            duration_seconds=1e-3,
            instructions=1_000_000,
            measured_abc_seconds=1.0,
            l3_accesses=5_000.0,
            dram_accesses=1_000.0,
        )
        assert obs.l3_apki == pytest.approx(5.0)
        assert obs.dram_apki == pytest.approx(1.0)
        assert not hasattr(obs, "l3_mpki")
        assert not hasattr(obs, "dram_mpki")

    def test_sample_is_fed_from_observation_apki(self):
        machine = STANDARD_MACHINES["2B2S"]()
        scheduler = ReliabilityScheduler(machine, 4)
        plan = scheduler.plan_quantum(0)[-1]
        core = plan.assignment.core_of[0]
        obs = Observation(
            app_index=0,
            core_id=core,
            core_type=BIG if core < machine.big_cores else "small",
            duration_seconds=1e-3,
            instructions=1_000_000,
            measured_abc_seconds=1.0,
            l3_accesses=5_000.0,
            dram_accesses=1_000.0,
        )
        scheduler.observe(plan, [obs])
        sample = scheduler.sample(0, obs.core_type)
        assert isinstance(sample, CoreTypeSample)
        assert sample.l3_apki == pytest.approx(obs.l3_apki)
        assert sample.dram_apki == pytest.approx(obs.dram_apki)


class TestModeFuzz:
    def test_mode_cases_pass(self):
        report = fuzz(
            3, model_cases=0, run_cases=0, stack_cases=0, kernel_cases=0,
            decision_cases=0, resume_cases=0, service_cases=0,
            mode_cases=1,
        )
        assert report.ok, report.format()
        assert report.reports[0].subject.startswith("mode/0")


def test_zero_abc_run_has_infinite_mttf():
    from repro.metrics.reliability import mttf, sser

    assert mttf(sser([])) == math.inf
