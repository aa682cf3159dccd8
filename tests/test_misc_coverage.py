"""Small tests covering remaining utility paths."""

import pytest

from repro.config import machine_2b2s
from repro.workloads.generator import generate_trace
from repro.workloads.profiling import measure_intervals
from repro.workloads.spec2006 import benchmark


class TestCliVerboseSweep:
    def test_verbose_writes_progress_to_stderr(self, capsys):
        from repro.cli.main import main
        assert main(["sweep", "--machine", "1B1S", "--programs", "2",
                     "--instructions", "1000000", "--verbose"]) == 0
        err = capsys.readouterr().err
        assert "sser=" in err


class TestIntervalCharacteristics:
    def test_to_characteristics_valid(self):
        trace = generate_trace(benchmark("soplex"), 20_000, seed=2)
        stats = measure_intervals(trace, interval=10_000)
        for interval in stats:
            chars = interval.to_characteristics()
            assert chars.l1d_mpki >= chars.l2_mpki >= chars.l3_mpki
            assert chars.mlp >= 1.0
            assert chars.dep_distance_mean >= 1.0

    def test_feature_vector_shape(self):
        trace = generate_trace(benchmark("soplex"), 10_000, seed=2)
        stats = measure_intervals(trace, interval=10_000)
        assert stats[0].feature_vector().shape == (8,)


class TestConstrainedHysteresis:
    def test_stays_put_within_threshold(self):
        from repro.config import BIG
        from repro.sched.base import Observation
        from repro.sched.constrained import ConstrainedReliabilityScheduler

        m = machine_2b2s()
        sched = ConstrainedReliabilityScheduler(m, 4, max_stp_loss=1.0,
                                                swap_threshold=0.5)
        # Near-tied applications: huge threshold must freeze placement.
        for q in range(2):
            plans = sched.plan_quantum(q)
            for plan in plans:
                obs = []
                for i in range(4):
                    t = plan.assignment.core_type_of(i, m)
                    abc = (1000.0 + i) if t == BIG else 100.0
                    obs.append(Observation(
                        i, plan.assignment.core_of[i], t, 1e-3,
                        1_000_000, abc * 1e-3,
                    ))
                sched.observe(plan, obs)
        first = sched.plan_quantum(2)[-1].assignment
        second = sched.plan_quantum(3)[-1].assignment
        assert first.core_of == second.core_of
