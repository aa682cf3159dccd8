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

import pytest

from repro.ace.counters import AceCounterMode, measured_abc
from repro.check.differential import _GenericPathModel
from repro.config.machines import machine_2b2s
from repro.config.structures import StructureKind
from repro.cores.base import MemoryEnvironment
from repro.cores.mechanistic import MechanisticCoreModel
from repro.memory.interference import ApplicationDemand, InterferenceModel
from repro.sched.base import PARKED, Observation
from repro.sim import segment
from repro.sim.multicore import default_models
from repro.sim.segment import NO_DEMAND, SegmentStep
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
    envs = InterferenceModel(MACHINE.memory).environments(demands)
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
        new_demands.append(ApplicationDemand(l3 / duration, dram / duration))
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
        assert demands[0] == ApplicationDemand(0.0, 0.0)

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
