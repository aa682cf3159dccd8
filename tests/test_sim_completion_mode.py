"""Tests for run-to-completion mode (no restarts)."""

import pytest

from repro.config import machine_2b2s
from repro.sched.oracle import StaticScheduler
from repro.sched.reliability import ReliabilityScheduler
from repro.sim.multicore import MulticoreSimulation
from repro.workloads.spec2006 import benchmark

NAMES = ("povray", "milc", "gobmk", "bzip2")


def _profiles(n=3_000_000):
    return [benchmark(name).scaled(n) for name in NAMES]


@pytest.fixture(scope="module")
def completion_run():
    machine = machine_2b2s()
    sim = MulticoreSimulation(
        machine, _profiles(), StaticScheduler(machine, 4, (0, 1)),
        restart_finished=False,
    )
    return sim.run()


class TestCompletionMode:
    def test_each_app_runs_exactly_once(self, completion_run):
        for app in completion_run.apps:
            assert app.completed_runs == 1
            assert app.instructions == 3_000_000

    def test_times_stop_at_completion(self, completion_run):
        times = [a.time_seconds for a in completion_run.apps]
        # Applications finish at different times; none after the end.
        assert len(set(times)) > 1
        assert max(times) <= completion_run.duration_seconds + 1e-12

    def test_slowdowns_sane(self, completion_run):
        for app in completion_run.apps:
            assert app.slowdown >= 0.99

    def test_restart_mode_runs_more_work(self):
        machine = machine_2b2s()
        restart = MulticoreSimulation(
            machine, _profiles(), StaticScheduler(machine, 4, (0, 1)),
            restart_finished=True,
        ).run()
        total_restart = sum(a.instructions for a in restart.apps)
        assert total_restart > 4 * 3_000_000

    def test_wser_comparable_between_modes(self):
        """Per-work reliability rates are mode-independent for a
        static schedule (restarts just repeat the same work)."""
        machine = machine_2b2s()
        restart = MulticoreSimulation(
            machine, _profiles(), StaticScheduler(machine, 4, (0, 1)),
        ).run()
        completion = MulticoreSimulation(
            machine, _profiles(), StaticScheduler(machine, 4, (0, 1)),
            restart_finished=False,
        ).run()
        assert completion.sser == pytest.approx(restart.sser, rel=0.1)

    def test_works_with_sampling_scheduler(self):
        machine = machine_2b2s()
        result = MulticoreSimulation(
            machine, _profiles(), ReliabilityScheduler(machine, 4),
            restart_finished=False,
        ).run()
        assert all(a.completed_runs == 1 for a in result.apps)
        assert result.sser > 0

    def test_clipped_observation_keeps_branch_mpki(self):
        machine = machine_2b2s()
        observations = []

        class Recording(StaticScheduler):
            def observe(self, plan, obs):
                observations.extend(obs)
                super().observe(plan, obs)

        profiles = _profiles()
        MulticoreSimulation(
            machine, profiles, Recording(machine, 4, (0, 1)),
            restart_finished=False,
        ).run()
        executed = [0] * len(profiles)
        for obs in observations:
            if obs.instructions <= 0:
                continue
            executed[obs.app_index] += obs.instructions
            rates = [c.branch_mpki for _, c in profiles[obs.app_index].phases]
            assert min(rates) * 0.999 <= obs.branch_mpki <= max(rates) * 1.001
        # The slices add up to each application's length exactly, so
        # every application's last slice was clipped.
        assert executed == [3_000_000] * len(profiles)

    def test_antt_meaningful_in_completion_mode(self, completion_run):
        """ANTT uses per-application turnaround, which only stops
        accumulating at completion in this mode."""
        assert 1.0 <= completion_run.antt < 5.0
