"""The segment step's column path on edge slices.

An unmodified ``MechanisticCoreModel`` hands the step each slice as
columns (``run_columns``), which the step clips, sums and reads the
counters from directly; a model that overrides ``run_cycles`` (the
``segment`` fuzz cases' ``_GenericPathModel``) takes the generic path
through a ``QuantumResult``.  On every edge slice below
the two paths must agree with each other and with a reference that
applies ``QuantumResult.clipped``, ``total_ace_bit_cycles`` and
``measured_abc`` to ``run_cycles`` results, as the step did before it
kept slices in columns.  Outputs are compared by ``repr``, so an int
that turns into a float shows too.
"""

from __future__ import annotations

import math
import sys

import pytest

from repro.ace.counters import AceCounterMode, measured_abc
from repro.check.differential import _GenericPathModel, _RecordingScheduler
from repro.config.machines import machine_2b2s
from repro.config.structures import StructureKind
from repro.cores.base import MemoryEnvironment
from repro.cores.mechanistic import MechanisticCoreModel
from repro.memory.interference import ApplicationDemand, InterferenceModel
from repro.sched.base import PARKED, Observation, Scheduler
from repro.sched.oracle import StaticScheduler
from repro.sched.random_sched import RandomScheduler
from repro.sched.reliability import ReliabilityScheduler
from repro.sim import segment
from repro.sim.multicore import MulticoreSimulation, default_models
from repro.sim.segment import NO_DEMAND, SegmentStep
from repro.sim.serialize import run_result_to_dict
from repro.workloads.characteristics import BenchmarkProfile
from repro.workloads.spec2006 import SUITE, benchmark

MACHINE = machine_2b2s()
CORES = (0, 1, 2, 3)  # big, big, small, small
#: Zero demands give every application the whole LLC and an idle bus.
ZERO = [NO_DEMAND] * 4
ENV = MemoryEnvironment(1.0, 1.0)
MIX = ("mcf", "povray", "milc", "gobmk")


class _ColumnOverride(MechanisticCoreModel):
    """Overrides ``run_columns``: the step takes the generic path too."""

    def run_columns(self, *args):
        return super().run_columns(*args)


def _models(cls):
    return {
        core_type: cls(getattr(MACHINE, core_type), MACHINE.memory)
        for core_type in ("big", "small")
    }


def _reference(counter_mode, clip, core_of, duration, demands, apps,
               positions, last_cores):
    """The step's per-slice arithmetic on ``QuantumResult`` methods."""
    models = default_models(MACHINE)
    envs = InterferenceModel(MACHINE.memory).environments(
        [ApplicationDemand(l3, dram) for l3, dram in demands]
    )
    transfer = min(MACHINE.migration_overhead_seconds, duration)
    deltas, observations, new_demands = [], [], []
    for i, core in enumerate(core_of):
        app = apps[i]
        if core == PARKED or app is None:
            deltas.append(None)
            core_type = "parked" if core == PARKED else MACHINE.core_type(core)
            observations.append(Observation(i, core, core_type, 0.0, 0, 0.0))
            new_demands.append(NO_DEMAND)
            continue
        config = MACHINE.core_config(core)
        core_type = MACHINE.core_type(core)
        freq = config.frequency_hz
        migrated = last_cores[i] is not None and last_cores[i] != core
        overhead = transfer if migrated else 0.0
        result = models[core_type].run_cycles(
            app, positions[i], (duration - overhead) * freq, envs[i]
        )
        if clip and result.instructions > app.instructions - positions[i]:
            result = result.clipped(app.instructions - positions[i])
        l3, dram = result.l3_accesses, result.memory_accesses
        deltas.append((
            core, core_type, migrated, overhead, result.instructions,
            result.cycles, result.total_ace_bit_cycles / freq,
            sum(result.occupancy_bit_cycles.values()) / freq, l3, dram,
        ))
        demand = ApplicationDemand(l3 / duration, dram / duration)
        new_demands.append((
            demand.l3_accesses_per_second, demand.dram_accesses_per_second,
        ))
        observations.append(Observation(
            i, core, core_type, duration - overhead, result.instructions,
            measured_abc(result, counter_mode, config.out_of_order) / freq,
            l3, dram, result.branch_mispredictions,
        ))
    return deltas, observations, new_demands


def _three_ways(apps, positions, duration, *, clip=False,
                counter_mode=AceCounterMode.FULL, last_cores=CORES,
                demands=ZERO):
    """Run one segment on the column path, the generic path and the
    reference; assert all three agree and return the column output."""
    column = SegmentStep(
        MACHINE, default_models(MACHINE), counter_mode, clip=clip
    )
    generic = SegmentStep(
        MACHINE, _models(_GenericPathModel), counter_mode, clip=clip
    )
    assert column._memo is not None and generic._memo is None
    args = (CORES, duration, demands, apps, positions, last_cores)
    outputs = [
        column.run(*args),
        generic.run(*args),
        _reference(counter_mode, clip, *args),
    ]
    shown = [repr(tuple(map(list, output))) for output in outputs]
    assert shown[0] == shown[1] == shown[2]
    return outputs[0]


def _apps(instructions=1_000_000_000):
    return [benchmark(name).scaled(instructions) for name in MIX]


def _cpi(core_type, chars):
    return default_models(MACHINE)[core_type].analyze(chars, ENV).cpi


def _duration(cycles):
    return cycles / MACHINE.big.frequency_hz


class TestEdgeSlices:
    def test_paths_are_chosen_by_overrides(self):
        step = SegmentStep(
            MACHINE, default_models(MACHINE), AceCounterMode.FULL, clip=False
        )
        assert step._run_slice is MechanisticCoreModel.run_columns
        for cls in (_GenericPathModel, _ColumnOverride):
            step = SegmentStep(
                MACHINE, _models(cls), AceCounterMode.FULL, clip=False
            )
            assert step._run_slice is segment._generic_slice
            assert step._memo is None

    @pytest.mark.parametrize("offset", [-0.3, -0.01, 0.01, 0.3])
    def test_rounded_count_meets_the_phase_end(self, offset):
        apps = _apps()
        chars, left = apps[0].phase_span(12_345)
        cpi = _cpi("big", chars)
        duration = _duration((left + offset) * cpi)
        deltas, _, _ = _three_ways(apps, [12_345, 0, 0, 0], duration)
        # Rounding lands the slice exactly on the phase's end.
        assert deltas[0][4] == left

    def test_idle_remainder_near_half_a_cpi(self):
        apps = _apps()
        cpi = _cpi("big", apps[0].phase_at(0))
        middle = _duration(1_000.5 * cpi)
        counts = set()
        for step in range(-40, 41):
            duration = middle * (1.0 + step * 2e-16)
            deltas, _, _ = _three_ways(apps, [0, 0, 0, 0], duration)
            counts.add(deltas[0][4])
        assert counts == {1_000, 1_001}

    def test_budget_under_half_a_cpi_commits_nothing(self):
        apps = _apps()
        cpi = _cpi("big", apps[0].phase_at(0))
        deltas, observations, demands = _three_ways(
            apps, [0, 0, 0, 0], _duration(0.4 * cpi)
        )
        assert deltas[0][4] == 0 and deltas[0][5] > 0.0
        assert observations[0].measured_abc_seconds == 0.0
        assert demands[0] == (0.0, 0.0)

    @pytest.mark.parametrize("share", [0.5, 1.0])
    def test_migration_overhead_fills_the_segment(self, share):
        duration = MACHINE.migration_overhead_seconds * share
        deltas, observations, _ = _three_ways(
            _apps(), [0, 0, 0, 0], duration, last_cores=(1, 0, 3, 2),
        )
        for delta, observation in zip(deltas, observations):
            assert delta[2] and delta[3] == duration
            assert delta[4] == 0 and delta[5] == 0.0
            assert observation.duration_seconds == 0.0

    @pytest.mark.parametrize("clip", [True, False])
    def test_slice_at_the_applications_end(self, clip):
        apps = _apps(2_000_000)
        positions = [apps[i].instructions - left for i, left in
                     enumerate((37, 1, 5_000, 123))]
        deltas, _, _ = _three_ways(
            apps, positions, MACHINE.quantum_seconds, clip=clip
        )
        counts = [delta[4] for delta in deltas]
        if clip:
            assert counts == [37, 1, 5_000, 123]
        else:
            # Restarted applications run on past their end.
            assert all(count > 5_000 for count in counts)

    @pytest.mark.parametrize("crossings", [0, 1, 3])
    @pytest.mark.parametrize("counter_mode", list(AceCounterMode))
    def test_slice_crosses_phase_ends(self, crossings, counter_mode):
        phases = tuple(
            (0.2, chars)
            for chars in (
                SUITE[name].phases[0][1]
                for name in ("mcf", "povray", "milc", "gobmk", "lbm")
            )
        )
        five = BenchmarkProfile("five", 1_000_000, phases)
        bounds = five.phase_boundaries()
        start = bounds[1] - 100
        for core_type, app_index in (("big", 0), ("small", 2)):
            # Stop 50 instructions into the phase ``crossings`` later.
            cpis = [_cpi(core_type, chars) for _, chars in phases]
            if crossings == 0:
                budget = 50 * cpis[0]
            else:
                budget = 100 * cpis[0] + 50 * cpis[crossings] + sum(
                    (bounds[k + 1] - bounds[k]) * cpis[k]
                    for k in range(1, crossings)
                )
            apps = _apps()
            apps[app_index] = five
            positions = [0, 0, 0, 0]
            positions[app_index] = start
            deltas, _, _ = _three_ways(
                apps, positions, _duration(budget),
                counter_mode=counter_mode,
            )
            count = deltas[app_index][4]
            if crossings == 0:
                assert count == 50
            else:
                end = start + count
                assert bounds[crossings] < end <= bounds[crossings + 1]


class TestCounterReadings:
    @pytest.mark.parametrize("counter_mode", list(AceCounterMode))
    def test_rob_only_and_register_file_exclusion(self, counter_mode):
        apps = _apps()
        _, observations, _ = _three_ways(
            apps, [0, 0, 0, 0], MACHINE.quantum_seconds,
            counter_mode=counter_mode,
        )
        models = default_models(MACHINE)
        for core, observation in zip(CORES, observations):
            core_type = MACHINE.core_type(core)
            result = models[core_type].run_cycles(
                apps[core], 0, MACHINE.quantum_seconds
                * MACHINE.core_config(core).frequency_hz, ENV,
            )
            ace = result.ace_bit_cycles
            if core_type == "small":
                expected = (
                    result.total_ace_bit_cycles
                    - ace[StructureKind.REGISTER_FILE]
                )
            elif counter_mode == AceCounterMode.ROB_ONLY:
                expected = ace[StructureKind.ROB]
            else:
                expected = result.total_ace_bit_cycles
            freq = MACHINE.core_config(core).frequency_hz
            assert observation.measured_abc_seconds == expected / freq
            if core_type == "small" or counter_mode == AceCounterMode.ROB_ONLY:
                assert expected < result.total_ace_bit_cycles

    def test_parked_and_idle_slots(self):
        apps = _apps()
        apps[1] = None
        step = SegmentStep(
            MACHINE, default_models(MACHINE), AceCounterMode.FULL, clip=True
        )
        core_of = (0, 1, PARKED, 3)
        output = step.run(
            core_of, MACHINE.quantum_seconds, ZERO, apps, [0] * 4, CORES
        )
        reference = _reference(
            AceCounterMode.FULL, True, core_of, MACHINE.quantum_seconds,
            ZERO, apps, [0] * 4, CORES,
        )
        assert repr(tuple(map(list, output))) == repr(reference)
        assert output[0][1] is None and output[0][2] is None


class _NegativeTraffic(MechanisticCoreModel):
    """Reports negative L3 traffic: a demand no model may produce."""

    def run_cycles(self, app, start_instruction, cycles, env, start_span=None):
        result = super().run_cycles(app, start_instruction, cycles, env)
        result.l3_accesses = -1.0
        return result


class TestDemandChecks:
    """Demands are plain pairs inside the step; every check the
    ``ApplicationDemand`` and ``MemoryEnvironment`` constructors made
    on the step path still raises ``ValueError``."""

    @pytest.mark.parametrize("demand", [
        (-1.0, 0.0), (0.0, -1.0), (-0.5, -0.5),
        (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
    ])
    def test_bad_incoming_demand_raises(self, demand):
        step = SegmentStep(
            MACHINE, default_models(MACHINE), AceCounterMode.FULL, clip=False
        )
        demands = [NO_DEMAND, demand, NO_DEMAND, NO_DEMAND]
        with pytest.raises(ValueError):
            step.run(CORES, MACHINE.quantum_seconds, demands, _apps(),
                     [0] * 4, CORES)

    def test_negative_measured_traffic_raises(self):
        step = SegmentStep(
            MACHINE, _models(_NegativeTraffic), AceCounterMode.FULL,
            clip=False,
        )
        with pytest.raises(ValueError, match="non-negative"):
            step.run(CORES, MACHINE.quantum_seconds, ZERO, _apps(),
                     [0] * 4, CORES)

    def test_environments_keep_their_checks(self):
        model = InterferenceModel(MACHINE.memory)
        for bad in (_Demand(-1.0, 0.0), _Demand(0.0, -1.0)):
            with pytest.raises(ValueError, match="non-negative"):
                model.environments([bad, _Demand(1.0, 0.0)])
        with pytest.raises(ValueError, match="l3_share_fraction"):
            model.environments([_Demand(math.nan, 0.0), _Demand(1.0, 0.0)])
        envs = model.environments(
            [ApplicationDemand(2e8, 3e7), ApplicationDemand(5e7, 1e6)]
        )
        shares = [env.l3_share_fraction for env in envs]
        assert sum(shares) == pytest.approx(1.0)
        assert envs[0].dram_latency_multiplier > 1.0


class _Demand:
    """A duck-typed demand that skips ``ApplicationDemand``'s check."""

    def __init__(self, l3, dram):
        self.l3_accesses_per_second = l3
        self.dram_accesses_per_second = dram


class _Observing(RandomScheduler):
    """A random scheduler that reads its observations."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []

    def observe(self, plan, observations):
        self.seen.append(list(observations))


class _Spy:
    """Records each segment's inputs, the step it ran on and its
    observations."""

    def __init__(self, monkeypatch):
        self.segments = []
        self.steps = []
        original = SegmentStep.run

        def run(step, core_of, duration, demands, apps, positions, last):
            output = original(
                step, core_of, duration, demands, apps, positions, last
            )
            self.steps.append(step)
            self.segments.append((
                step.counter_mode, step.clip, core_of, duration,
                list(demands), list(apps), list(positions), list(last),
                output[1],
            ))
            return output

        monkeypatch.setattr(SegmentStep, "run", run)


def _simulate(scheduler, instructions=50_000_000, restart=True):
    """A 2B2S run of ``MIX``, serialized without the scheduler's name."""
    profiles = [benchmark(name).scaled(instructions) for name in MIX]
    result = run_result_to_dict(MulticoreSimulation(
        MACHINE, profiles, scheduler, record_timeline=True,
        restart_finished=restart,
    ).run())
    del result["scheduler_name"]
    return result


class TestObservations:
    """The step builds observations only for a scheduler that overrides
    ``Scheduler.observe``; those it builds are the parent's."""

    def _check_against_reference(self, spy):
        assert spy.segments
        for (counter_mode, clip, core_of, duration, demands, apps,
             positions, last, observations) in spy.segments:
            reference = _reference(
                counter_mode, clip, core_of, duration, demands, apps,
                positions, last,
            )
            assert repr(observations) == repr(reference[1])

    @pytest.mark.parametrize("restart", [True, False])
    def test_observing_scheduler_gets_the_parents_observations(
        self, monkeypatch, restart
    ):
        spy = _Spy(monkeypatch)
        scheduler = _Observing(MACHINE, 4, seed=3)
        observed = _simulate(scheduler, restart=restart)
        assert all(step.observe for step in spy.steps)
        assert [list(seen) for seen in scheduler.seen] == [
            segment_[-1] for segment_ in spy.segments
        ]
        self._check_against_reference(spy)
        # Observations change nothing a random scheduler decides.
        spy.segments.clear()
        spy.steps.clear()
        plain = _simulate(RandomScheduler(MACHINE, 4, seed=3), restart=restart)
        assert not any(step.observe for step in spy.steps)
        assert all(seg[-1] is None for seg in spy.segments)
        assert plain == observed

    @pytest.mark.parametrize("inner", ["random", "reliability"])
    def test_recording_scheduler_gets_the_parents_observations(
        self, monkeypatch, inner
    ):
        spy = _Spy(monkeypatch)
        if inner == "random":
            scheduler = RandomScheduler(MACHINE, 4, seed=5)
        else:
            scheduler = ReliabilityScheduler(MACHINE, 4)
        seen = []
        scheduler.observe = lambda plan, observations: seen.append(
            list(observations)
        )
        # Duck-typed: not a Scheduler subclass, and its observe
        # delegates, so it is handed observations.
        recording = _RecordingScheduler(scheduler)
        assert not isinstance(recording, Scheduler)
        _simulate(recording)
        assert all(step.observe for step in spy.steps)
        assert seen == [segment_[-1] for segment_ in spy.segments]
        self._check_against_reference(spy)


class _ObservingStatic(StaticScheduler):
    def observe(self, plan, observations):
        pass


class TestStaticSchedulerReplay:
    """A scheduler without ``observe`` still has its segments stored
    and replayed: a 2B2S ``StaticScheduler`` run computes as many
    slices as at the parent, where every step built observations."""

    def test_computes_as_many_segments_as_the_parent(self, monkeypatch):
        slices = []
        original = MechanisticCoreModel.run_columns

        def counting(model, *args):
            slices.append(1)
            return original(model, *args)

        monkeypatch.setattr(MechanisticCoreModel, "run_columns", counting)
        counts, results = [], []
        for cls in (StaticScheduler, _ObservingStatic):
            slices.clear()
            results.append(_simulate(cls(MACHINE, 4, [1, 2]), 200_000_000))
            counts.append(len(slices))
        assert counts[0] == counts[1]
        assert results[0] == results[1]
        assert results[0]["quanta"] > 10 * counts[0] // 4
        if sys.version_info[:2] == (3, 11):
            # The parent's count, measured on the interpreter the
            # committed results match.
            assert counts[0] == 120
