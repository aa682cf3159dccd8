"""Tests for the concrete schedulers: random, reliability, performance."""

import numpy as np
import pytest

from repro.config import (
    BIG,
    SMALL,
    machine_1b1s,
    machine_1b3s,
    machine_2b2s,
    machine_4b4s,
)
from repro.sched import random_sched
from repro.sched.base import PARKED, Assignment, Observation, SegmentPlan
from repro.sched.performance import PerformanceScheduler
from repro.sched.random_sched import RandomScheduler
from repro.sched.reliability import ReliabilityScheduler


def _feed_samples(sched, machine, samples):
    """Inject (ips, abc_rate) samples for both core types per app.

    ``samples[(i, type)] = (ips, abc_per_second)``.
    """
    for (i, core_type), (ips, abc) in samples.items():
        core = 0 if core_type == BIG else machine.big_cores
        obs = Observation(
            app_index=i, core_id=core, core_type=core_type,
            duration_seconds=1e-3, instructions=int(ips * 1e-3),
            measured_abc_seconds=abc * 1e-3,
        )
        plan = sched.plan_quantum(0)[0]
        sched.observe(plan, [obs])


class TestRandomScheduler:
    def test_reshuffles_every_quantum(self):
        m = machine_2b2s()
        sched = RandomScheduler(m, 4, seed=3)
        assignments = {sched.plan_quantum(q)[0].assignment.core_of
                       for q in range(20)}
        assert len(assignments) > 3

    def test_deterministic_per_seed(self):
        m = machine_2b2s()
        a = [RandomScheduler(m, 4, seed=5).plan_quantum(q)[0].assignment.core_of
             for q in range(5)]
        b = [RandomScheduler(m, 4, seed=5).plan_quantum(q)[0].assignment.core_of
             for q in range(5)]
        assert a == b

    def test_single_full_segment(self):
        plans = RandomScheduler(machine_2b2s(), 4).plan_quantum(0)
        assert len(plans) == 1
        assert plans[0].fraction == 1.0


def _per_call_plans(machine, num_apps, seed, quanta):
    """The per-call ``plan_quantum`` of the scheduler before it drew
    its permutations in blocks, kept verbatim, over ``quanta`` quanta."""
    rng = np.random.default_rng(seed)
    plans = []
    for _ in range(quanta):
        cores = rng.permutation(machine.num_cores)
        apps = rng.permutation(num_apps)
        core_of = [PARKED] * num_apps
        for slot, app in enumerate(apps[: machine.num_cores]):
            core_of[int(app)] = int(cores[slot])
        plans.append([SegmentPlan(1.0, Assignment(tuple(core_of)))])
    return plans


class TestRandomStream:
    """The block-drawn schedule is the per-call schedule.

    ``Generator.permuted`` over the rows of a tiled ``arange(n)`` must
    yield the rows successive ``permutation(n)`` calls yield and leave
    the generator in the same state.  numpy does not promise this; if
    a release changes it, ``test_permuted_rows_are_successive_permutations``
    names the cause.
    """

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2**32 + 5])
    def test_permuted_rows_are_successive_permutations(self, seed, n):
        rows = 300
        calls = np.random.default_rng(seed)
        block = np.random.default_rng(seed)
        expected = [calls.permutation(n) for _ in range(rows)]
        got = block.permuted(np.tile(np.arange(n), (rows, 1)), axis=1)
        assert [row.tolist() for row in got] == [
            row.tolist() for row in expected
        ]
        assert got.dtype == expected[0].dtype
        assert block.bit_generator.state == calls.bit_generator.state
        # The next draws agree too.
        assert block.permutation(n).tolist() == calls.permutation(n).tolist()

    @pytest.mark.parametrize("machine, num_apps", [
        (machine_1b1s(), 2),
        (machine_2b2s(), 4),
        (machine_1b3s(), 4),
        (machine_4b4s(), 8),
        (machine_2b2s(), 6),  # oversubscribed: the per-call path
    ], ids=["1B1S", "2B2S", "1B3S", "4B4S", "2B2S-6apps"])
    @pytest.mark.parametrize("seed", [0, 13])
    def test_plans_equal_the_per_call_plans(self, machine, num_apps, seed):
        quanta = 3 * random_sched._BLOCK_ROWS // 2 + 7  # over three blocks
        scheduler = RandomScheduler(machine, num_apps, seed=seed)
        got = [scheduler.plan_quantum(q) for q in range(quanta)]
        assert got == _per_call_plans(machine, num_apps, seed, quanta)
        for plans in got:
            assert len(plans) == 1
            plans[0].assignment.validate(machine)


class TestObjectives:
    def _reliability_with_samples(self, m):
        sched = ReliabilityScheduler(m, 4)
        # Run the two initial sampling quanta with controlled data:
        # app i on big has ABC rate (i+1)*1000, all IPS equal.
        for q in range(2):
            plans = sched.plan_quantum(q)
            for plan in plans:
                obs = []
                for i in range(4):
                    t = plan.assignment.core_type_of(i, m)
                    abc = (i + 1) * 1000.0 if t == BIG else (i + 1) * 100.0
                    obs.append(Observation(
                        app_index=i,
                        core_id=plan.assignment.core_of[i],
                        core_type=t,
                        duration_seconds=1e-3,
                        instructions=1_000_000,
                        measured_abc_seconds=abc * 1e-3,
                    ))
                sched.observe(plan, obs)
        return sched

    def test_reliability_objective_is_wser_estimate(self):
        m = machine_2b2s()
        sched = self._reliability_with_samples(m)
        # wSER estimate = abc_per_instruction(type) * big-core IPS.
        # IPS = 1e9 everywhere, so value(i, BIG) = (i+1)*1000.
        for i in range(4):
            assert sched.objective_value(i, BIG) == pytest.approx((i + 1) * 1000)
            assert sched.objective_value(i, SMALL) == pytest.approx((i + 1) * 100)

    def test_reliability_puts_highest_abc_apps_on_small(self):
        m = machine_2b2s()
        sched = self._reliability_with_samples(m)
        assignment = sched.plan_quantum(2)[-1].assignment
        # Apps 2 and 3 (highest ABC) must be on small cores.
        assert assignment.core_type_of(3, m) == SMALL
        assert assignment.core_type_of(2, m) == SMALL
        assert assignment.core_type_of(0, m) == BIG
        assert assignment.core_type_of(1, m) == BIG

    def test_performance_puts_highest_speedup_apps_on_big(self):
        m = machine_2b2s()
        sched = PerformanceScheduler(m, 4)
        # App i runs at IPS 1e9 on big; small-core IPS varies: apps
        # 0, 1 lose the most on small -> they belong on big.
        small_ips = {0: 2e8, 1: 3e8, 2: 8e8, 3: 9e8}
        for q in range(2):
            plans = sched.plan_quantum(q)
            for plan in plans:
                obs = []
                for i in range(4):
                    t = plan.assignment.core_type_of(i, m)
                    ips = 1e9 if t == BIG else small_ips[i]
                    obs.append(Observation(
                        app_index=i,
                        core_id=plan.assignment.core_of[i],
                        core_type=t,
                        duration_seconds=1e-3,
                        instructions=int(ips * 1e-3),
                        measured_abc_seconds=1e-3,
                    ))
                sched.observe(plan, obs)
        assignment = sched.plan_quantum(2)[-1].assignment
        assert assignment.core_type_of(0, m) == BIG
        assert assignment.core_type_of(1, m) == BIG
        assert assignment.core_type_of(2, m) == SMALL
        assert assignment.core_type_of(3, m) == SMALL
