"""Tests for the sampling scheduler machinery (Algorithm 1 skeleton)."""

import pytest

from repro.config import BIG, SMALL, machine_1b3s, machine_2b2s
from repro.sched.base import Observation, SegmentPlan
from repro.sched.sampling import (
    CoreTypeSample,
    SamplingScheduler,
    quantum_streak,
)


class CountingScheduler(SamplingScheduler):
    """Test double: objective = externally supplied per-(app, type) value."""

    def __init__(self, machine, num_apps, values=None, **kwargs):
        super().__init__(machine, num_apps, **kwargs)
        self.values = values or {}

    def objective_value(self, app_index, core_type):
        return self.values.get((app_index, core_type), 1.0)


def _drive_segment(sched, plan, machine, ips=1e9, abc=1e3):
    """Feed synthetic observations for one executed segment."""
    observations = [
        Observation(
            app_index=i,
            core_id=plan.assignment.core_of[i],
            core_type=plan.assignment.core_type_of(i, machine),
            duration_seconds=plan.fraction * machine.quantum_seconds,
            instructions=int(ips * plan.fraction * machine.quantum_seconds),
            measured_abc_seconds=abc * plan.fraction,
        )
        for i in range(sched.num_apps)
    ]
    sched.observe(plan, observations)


def _run_quantum(sched, machine, q):
    plans = sched.plan_quantum(q)
    assert sum(p.fraction for p in plans) == pytest.approx(1.0)
    for plan in plans:
        _drive_segment(sched, plan, machine)
    return plans


class TestInitialSampling:
    def test_symmetric_machine_needs_two_quanta(self):
        m = machine_2b2s()
        sched = CountingScheduler(m, 4)
        plans0 = _run_quantum(sched, m, 0)
        assert plans0[0].is_sampling
        plans1 = _run_quantum(sched, m, 1)
        assert plans1[0].is_sampling
        # After two quanta, every app has both samples.
        for i in range(4):
            assert sched.sample(i, BIG) is not None
            assert sched.sample(i, SMALL) is not None
        # Third quantum is a regular one.
        plans2 = sched.plan_quantum(2)
        assert not plans2[0].is_sampling

    def test_asymmetric_machine_needs_more_quanta(self):
        """1B3S: four apps share one big core -> 4 initial quanta."""
        m = machine_1b3s()
        sched = CountingScheduler(m, 4)
        q = 0
        while any(
            sched.sample(i, BIG) is None or sched.sample(i, SMALL) is None
            for i in range(4)
        ):
            _run_quantum(sched, m, q)
            q += 1
            assert q <= 5
        assert q == 4


class TestStaleness:
    def test_sampling_phase_after_period(self):
        m = machine_2b2s()
        sched = CountingScheduler(m, 4)
        for q in range(2):  # initial sampling
            _run_quantum(sched, m, q)
        sampling_seen = False
        for q in range(2, 2 + m.sampling_period_quanta + 2):
            plans = _run_quantum(sched, m, q)
            if len(plans) == 2:
                sampling_seen = True
                assert plans[0].is_sampling
                assert plans[0].fraction == pytest.approx(0.1)
                # The sampling segment swaps pairs across core types.
                main = plans[1].assignment
                sample = plans[0].assignment
                changed = [
                    i for i in range(4) if main.core_of[i] != sample.core_of[i]
                ]
                assert changed
                for i in changed:
                    assert main.core_type_of(i, m) != sample.core_type_of(i, m)
        assert sampling_seen

    def test_staleness_bound_holds(self):
        """No application's off-type sample ever gets older than the
        sampling period plus one quantum."""
        m = machine_2b2s()
        sched = CountingScheduler(m, 4)
        for q in range(40):
            _run_quantum(sched, m, q)
            for i in range(4):
                for t in (BIG, SMALL):
                    sample = sched.sample(i, t)
                    if sample is not None:
                        assert sample.age_quanta <= m.sampling_period_quanta + 1

    def test_streak_rule(self):
        """The rule the schedulers and the open system share: a streak
        grows on the same core type, restarts on a change, and restarts
        when this quantum sampled the other type."""
        aged = CoreTypeSample(1e9, 1e-3, age_quanta=2)
        fresh = CoreTypeSample(1e9, 1e-3)
        assert quantum_streak(3, BIG, BIG, None) == 4
        assert quantum_streak(3, BIG, BIG, aged) == 4
        assert quantum_streak(3, SMALL, BIG, aged) == 1
        assert quantum_streak(0, None, BIG, None) == 1
        assert quantum_streak(3, BIG, BIG, fresh) == 1


class TestGreedySwap:
    def test_swaps_toward_lower_objective(self):
        m = machine_2b2s()
        # Apps 0,1 start on big.  App 0 is terrible on big; app 3 is
        # great on big: a swap is clearly profitable.
        values = {
            (0, BIG): 100.0, (0, SMALL): 1.0,
            (1, BIG): 1.0, (1, SMALL): 1.0,
            (2, BIG): 1.0, (2, SMALL): 1.0,
            (3, BIG): 1.0, (3, SMALL): 100.0,
        }
        sched = CountingScheduler(m, 4, values)
        for q in range(2):
            _run_quantum(sched, m, q)
        plans = sched.plan_quantum(2)
        a = plans[-1].assignment
        assert a.core_type_of(0, m) == SMALL
        assert a.core_type_of(3, m) == BIG

    def test_hysteresis_blocks_marginal_swaps(self):
        m = machine_2b2s()
        values = {
            (0, BIG): 1.001, (0, SMALL): 1.0,
            (1, BIG): 1.0, (1, SMALL): 1.0,
            (2, BIG): 1.0, (2, SMALL): 1.0,
            (3, BIG): 1.0, (3, SMALL): 1.001,
        }
        sched = CountingScheduler(m, 4, values, swap_threshold=0.05)
        for q in range(2):
            _run_quantum(sched, m, q)
        before = sched.plan_quantum(2)[-1].assignment
        after = sched.plan_quantum(3)[-1].assignment
        assert before.core_of == after.core_of

    def test_every_app_always_placed(self):
        m = machine_2b2s()
        sched = CountingScheduler(m, 4)
        for q in range(25):
            plans = _run_quantum(sched, m, q)
            for plan in plans:
                assert sorted(plan.assignment.core_of) == [0, 1, 2, 3]

    def test_requires_both_core_types(self):
        from repro.config import MachineConfig
        with pytest.raises(ValueError):
            CountingScheduler(MachineConfig(big_cores=2, small_cores=0), 2)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            CountingScheduler(machine_2b2s(), 4, swap_threshold=-0.1)
