"""The segment step: one code path for every segment, and its replay memo.

``SegmentStep`` replays a segment it has computed before instead of
recomputing it.  Every test here runs the same work twice: with replay,
and with ``SEGMENT_MEMO_CAP`` monkeypatched to 0, the recompute-only
reference, which stores nothing.  The two must agree exactly, because
the goldens and the benchmark digests pin outputs byte for byte; the
replay runs must also really replay, or the comparison proves nothing.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.ace.counters import AceCounterMode
from repro.config.machines import STANDARD_MACHINES, machine_2b2s
from repro.cores.mechanistic import MechanisticCoreModel
from repro.obs import metrics as obs_metrics
from repro.obs.decisions import DecisionTraceRecorder
from repro.sched.oversubscribed import OversubscribedReliabilityScheduler
from repro.sim import segment
from repro.sim.experiment import make_scheduler
from repro.sim.multicore import MulticoreSimulation, default_models
from repro.sim.serialize import run_result_to_dict
from repro.sim.tracedriven import run_trace_workload
from repro.workloads.characteristics import BenchmarkProfile
from repro.workloads.mixes import generate_workloads
from repro.workloads.spec2006 import benchmark


@pytest.fixture
def replays(monkeypatch):
    """Count the segments the steps replay."""
    hits = []
    original = segment.SegmentStep._replays

    def counting(self, *args):
        replayed = original(self, *args)
        hits.append(replayed)
        return replayed

    monkeypatch.setattr(segment.SegmentStep, "_replays", counting)
    return hits


def _recompute_only(monkeypatch):
    monkeypatch.setattr(segment, "SEGMENT_MEMO_CAP", 0)


def _simulate(machine, names, scheduler, *, instructions=200_000_000,
              counter_mode=AceCounterMode.FULL, restart=True, seed=0):
    profiles = [benchmark(name).scaled(instructions) for name in names]
    return MulticoreSimulation(
        machine,
        profiles,
        make_scheduler(scheduler, machine, len(profiles), seed),
        counter_mode=counter_mode,
        record_timeline=True,
        restart_finished=restart,
    ).run()


def _mix(machine):
    return generate_workloads(machine.num_cores, seed=42)[3].benchmarks


RUNS = [
    # (machine, scheduler, counter mode, restart finished applications)
    ("2B2S", "random", AceCounterMode.FULL, True),
    ("2B2S", "performance", AceCounterMode.FULL, True),
    ("2B2S", "reliability", AceCounterMode.FULL, True),
    ("2B2S", "modes", AceCounterMode.FULL, True),
    ("2B2S", "reliability", AceCounterMode.ROB_ONLY, True),
    ("2B2S", "performance", AceCounterMode.FULL, False),
    ("2B2S", "reliability", AceCounterMode.ROB_ONLY, False),
    ("1B3S", "random", AceCounterMode.ROB_ONLY, False),
    ("1B3S", "performance", AceCounterMode.ROB_ONLY, True),
    ("1B3S", "reliability", AceCounterMode.FULL, True),
    ("1B3S", "modes", AceCounterMode.FULL, False),
    ("4B4S", "random", AceCounterMode.FULL, True),
    ("4B4S", "performance", AceCounterMode.FULL, True),
    ("4B4S", "reliability", AceCounterMode.FULL, False),
    ("4B4S", "modes", AceCounterMode.ROB_ONLY, True),
]


class TestReplayIsExact:
    @pytest.mark.parametrize(
        "machine_name, scheduler, counter_mode, restart", RUNS,
        ids=[
            f"{m}-{s}-{c.name}-{'restart' if r else 'complete'}"
            for m, s, c, r in RUNS
        ],
    )
    def test_run_result_equals_recompute(
        self, monkeypatch, replays, machine_name, scheduler, counter_mode,
        restart,
    ):
        machine = STANDARD_MACHINES[machine_name]()
        names = _mix(machine)
        kwargs = dict(counter_mode=counter_mode, restart=restart)
        replayed = _simulate(machine, names, scheduler, **kwargs)
        hits = sum(replays)
        _recompute_only(monkeypatch)
        replays.clear()
        reference = _simulate(machine, names, scheduler, **kwargs)
        assert not any(replays)
        assert run_result_to_dict(replayed) == run_result_to_dict(reference)
        assert replayed.timeline
        if scheduler != "random":
            assert hits > 0

    def test_oversubscribed_run_with_parked_applications(
        self, monkeypatch, replays
    ):
        machine = machine_2b2s()
        names = generate_workloads(8, seed=42)[0].benchmarks[:6]

        def run():
            profiles = [benchmark(n).scaled(100_000_000) for n in names]
            return MulticoreSimulation(
                machine,
                profiles,
                OversubscribedReliabilityScheduler(machine, len(profiles)),
                record_timeline=True,
            ).run()

        replayed = run()
        hits = sum(replays)
        _recompute_only(monkeypatch)
        reference = run()
        assert any(p.core_type == "parked" for p in reference.timeline)
        assert run_result_to_dict(replayed) == run_result_to_dict(reference)
        assert hits > 0


def _traced_run(machine, names, scheduler):
    """A run's metrics (timers excluded) and decision-trace records."""
    profiles = [benchmark(n).scaled(200_000_000) for n in names]
    sched = make_scheduler(scheduler, machine, len(profiles))
    sched.recorder = DecisionTraceRecorder()
    with obs_metrics.collecting() as registry:
        result = MulticoreSimulation(machine, profiles, sched).run()
    series = {
        key: data
        for key, (kind, data) in registry.snapshot().series.items()
        if kind != "timer"
    }
    records = [record.to_dict() for record in sched.recorder.records]
    return run_result_to_dict(result), series, records


class TestObservability:
    @pytest.mark.parametrize("scheduler", ["reliability", "modes"])
    def test_metrics_and_decision_traces_equal(
        self, monkeypatch, replays, scheduler
    ):
        machine = machine_2b2s()
        names = _mix(machine)
        replayed = _traced_run(machine, names, scheduler)
        assert sum(replays) > 0
        _recompute_only(monkeypatch)
        reference = _traced_run(machine, names, scheduler)
        assert replayed[1] and replayed[2]
        assert replayed == reference


def _short_phase_profile(name, chars_cycle, instructions=40_000):
    """Long phases separated by runs of phases a few hundred
    instructions long, reusing the same phase objects."""
    pattern = (6_000, 300, 450, 250, 700, 200)
    lengths = []
    while sum(lengths) < instructions:
        lengths.append(pattern[len(lengths) % len(pattern)])
    lengths[-1] -= sum(lengths) - instructions
    phases = tuple(
        (length / instructions, chars_cycle[k % len(chars_cycle)])
        for k, length in enumerate(lengths)
    )
    return BenchmarkProfile(name=name, instructions=instructions, phases=phases)


class TestPhaseBoundaries:
    def test_slices_at_and_across_short_phases(self, monkeypatch, replays):
        base = machine_2b2s()
        # Slices of a few hundred instructions, as long as the short
        # phases, so they end inside, at and across phase boundaries.
        quantum = 2e-7
        machine = dataclasses.replace(
            base,
            quantum_seconds=quantum,
            sampling_quantum_seconds=quantum / 10,
            migration_overhead_seconds=quantum / 50,
        )
        suite = [benchmark(n) for n in ("mcf", "povray", "milc", "gobmk")]
        chars = [prof.phases[0][1] for prof in suite]
        profiles = [
            _short_phase_profile(f"p{i}", chars[i:] + chars[:i])
            for i in range(4)
        ]
        ends = []
        original = MechanisticCoreModel.run_columns

        def spying(model, app, start, cycles, env, *rest):
            columns = original(model, app, start, cycles, env, *rest)
            ends.append(columns[0] - app.phase_span(start)[1])
            return columns

        def run():
            return MulticoreSimulation(
                machine, profiles, make_scheduler("reliability", machine, 4),
                models=default_models(machine), record_timeline=True,
            ).run()

        monkeypatch.setattr(MechanisticCoreModel, "run_columns", spying)
        replayed = run()
        hits = sum(replays)
        # Slices ended inside, exactly at and past their phase's end.
        assert min(ends) < 0 and 0 in ends and max(ends) > 0
        _recompute_only(monkeypatch)
        reference = run()
        assert run_result_to_dict(replayed) == run_result_to_dict(reference)
        assert hits > 0
        # Some stored segments were refused because a slice would now
        # reach its phase's end.
        assert not all(replays)


def _segment(step, last_cores, positions, profiles):
    machine = machine_2b2s()
    return step.run(
        (0, 1, 2, 3), machine.quantum_seconds,
        [segment.NO_DEMAND] * 4, profiles, positions, last_cores,
    )


def _normal(output):
    deltas, observations, demands = output
    return list(deltas), list(observations), list(demands)


class TestStepRules:
    """One step, driven directly: a stored segment must not stand in
    for one that differs in a way the computation depends on."""

    PROFILES = [
        benchmark(name).scaled(50_000_000)
        for name in ("povray", "mcf", "milc", "gobmk")
    ]

    def _stored_step(self, clip, replays):
        machine = machine_2b2s()
        step = segment.SegmentStep(
            machine, default_models(machine), AceCounterMode.FULL, clip=clip
        )
        start = [0, 1, 2, 3]
        for _ in range(3):  # the second sighting stores, the third hits
            _segment(step, start, [0] * 4, self.PROFILES)
        assert replays == [True]
        return step

    def _fresh(self, clip, last_cores, positions):
        machine = machine_2b2s()
        step = segment.SegmentStep(
            machine, default_models(machine), AceCounterMode.FULL, clip=clip
        )
        return _normal(_segment(step, last_cores, positions, self.PROFILES))

    def test_a_migration_is_not_replayed_from_a_stay(self, replays):
        step = self._stored_step(False, replays)
        swapped = [1, 0, 2, 3]
        got = _normal(_segment(step, swapped, [0] * 4, self.PROFILES))
        assert got == self._fresh(False, swapped, [0] * 4)
        assert got[0][0][2] and got[0][0][3] > 0.0  # migrated, overhead

    def test_a_finished_application_is_clipped_not_replayed(self, replays):
        step = self._stored_step(True, replays)
        done = [self.PROFILES[0].instructions, 0, 0, 0]
        got = _normal(_segment(step, [0, 1, 2, 3], done, self.PROFILES))
        assert got == self._fresh(True, [0, 1, 2, 3], done)
        assert got[0][0][4] == 0  # clipped to nothing

    def test_a_segment_replays_its_stored_outputs(self, replays):
        step = self._stored_step(False, replays)
        start = [0, 1, 2, 3]
        first = _segment(step, start, [0] * 4, self.PROFILES)
        second = _segment(step, start, [0] * 4, self.PROFILES)
        assert replays == [True, True, True]
        assert _normal(first) == self._fresh(False, start, [0] * 4)
        # Shared immutable deltas and demands; a fresh observation list.
        assert first[0] is second[0] and first[2] is second[2]
        assert first[1] == second[1] and first[1] is not second[1]


class TestScope:
    def test_trace_driven_models_never_replay(self, monkeypatch):
        steps = []
        original = segment.SegmentStep.run

        def recording(self, *args):
            steps.append(self)
            return original(self, *args)

        monkeypatch.setattr(segment.SegmentStep, "run", recording)
        run_trace_workload(
            machine_2b2s(), ["mcf", "povray", "milc", "gobmk"], "reliability",
            instructions=20_000,
        )
        assert steps
        assert all(step._memo is None for step in steps)

    def test_memo_stays_under_cap_over_long_random_run(self, monkeypatch):
        sizes = []
        sightings = []
        original = segment.SegmentStep.run

        def measuring(self, *args):
            before = len(self._memo)
            result = original(self, *args)
            sizes.append(len(self._memo))
            sightings.append(len(self._memo) > before)
            return result

        monkeypatch.setattr(segment.SegmentStep, "run", measuring)
        machine = machine_2b2s()
        _simulate(machine, _mix(machine), "random", instructions=1_000_000_000)
        # More distinct segments than the memo holds: it was emptied.
        assert sum(sightings) > segment.SEGMENT_MEMO_CAP
        assert 0 < max(sizes) <= segment.SEGMENT_MEMO_CAP

    def test_models_come_from_one_bounded_table(self, monkeypatch):
        monkeypatch.setattr(segment, "_MODELS", {})
        machine = machine_2b2s()
        first = default_models(machine)
        assert default_models(machine_2b2s()) == first
        assert first["big"] is segment.mechanistic_model(
            machine.big, machine.memory
        )
        for i in range(2 * segment.MODEL_TABLE_CAP):
            core = dataclasses.replace(machine.big, frequency_ghz=1.0 + i)
            segment.mechanistic_model(core, machine.memory)
            assert len(segment._MODELS) <= segment.MODEL_TABLE_CAP
