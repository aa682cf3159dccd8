"""The mechanistic quantum loop: slice accumulation and phase lookup.

``run_cycles`` accumulates a slice in fixed structure columns and
analyzes each phase it enters once, and ``BenchmarkProfile.phase_span``
finds a phase with one bisect.  Each is checked here against the plain
computation it replaces: every result must be exactly equal, dict key
order included, because the goldens and the benchmark digests pin
outputs byte for byte.  The per-model phase-analysis memo these tests
also covered is gone; the feature table it sat on is tested in
``tests/test_cores_mechanistic_features.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli.main import build_parser
from repro.config import MemoryConfig, big_core_config
from repro.config import small_core_config
from repro.cores import mechanistic
from repro.cores.base import ISOLATED, MemoryEnvironment, QuantumResult
from repro.cores.mechanistic import (
    FEATURE_TABLE_CAP,
    MechanisticCoreModel,
    analyze_phase,
)
from repro.workloads.characteristics import (
    BenchmarkProfile,
    PhaseCharacteristics,
)
from repro.workloads.spec2006 import BENCHMARK_NAMES, SUITE, benchmark

CORES = {"big": big_core_config(), "small": small_core_config()}
MEMORY = MemoryConfig()
SUITE_PHASES = [chars for prof in SUITE.values() for _, chars in prof.phases]

shares = st.floats(0.05, 1.0)
multipliers = st.floats(1.0, 4.0)
environments = st.builds(MemoryEnvironment, shares, multipliers)


def _analysis_fields(analysis):
    """Every field of a PhaseAnalysis, dicts as ordered item lists."""
    return (
        analysis.ipc,
        list(analysis.cpi_components.items()),
        list(analysis.ace_bits_per_cycle.items()),
        list(analysis.occupancy_bits_per_cycle.items()),
        analysis.dram_accesses_per_instruction,
        analysis.l3_accesses_per_instruction,
    )


def _result_fields(result):
    """Every field of a QuantumResult, dicts as ordered item lists."""
    return (
        type(result.instructions),
        result.instructions,
        result.cycles,
        list(result.ace_bit_cycles.items()),
        list(result.occupancy_bit_cycles.items()),
        result.memory_accesses,
        result.l3_accesses,
        result.branch_mispredictions,
    )


def _model(core_type):
    return MechanisticCoreModel(CORES[core_type], MEMORY)


class TestAnalysisMemo:
    def test_models_keep_separate_memos(self):
        phase = SUITE_PHASES[0]
        big, small = _model("big"), _model("small")
        assert big.analyze(phase, ISOLATED) is not small.analyze(
            phase, ISOLATED
        )
        assert big.analyze(phase, ISOLATED).ipc != small.analyze(
            phase, ISOLATED
        ).ipc


class TestPinnedKeys:
    def test_fresh_object_at_a_freed_address(self):
        model = _model("small")
        env = MemoryEnvironment(0.75, 1.5)
        # Phases created and dropped in turn: CPython hands freed
        # addresses to the next object, but never while an entry pins it.
        for value in range(1, 40):
            phase = PhaseCharacteristics(branch_mpki=float(value))
            assert _analysis_fields(model.analyze(phase, env)) == (
                _analysis_fields(
                    analyze_phase(phase, model.core, model.memory, env)
                )
            )
            del phase


class TestMemoCap:
    def test_cap_is_a_module_constant(self):
        assert isinstance(FEATURE_TABLE_CAP, int)
        assert 32 <= FEATURE_TABLE_CAP <= 1024
        params = inspect.signature(MechanisticCoreModel.__init__).parameters
        assert list(params) == ["self", "core", "memory"]
        source = inspect.getsource(mechanistic)
        assert "os.environ" not in source and "getenv" not in source

    def test_no_cli_option_sizes_the_memo(self):
        def options(parser):
            for action in parser._actions:
                yield from action.option_strings
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from options(sub)

        assert not [o for o in options(build_parser()) if "memo" in o]


def _reference_run_cycles(model, app, start_instruction, cycles, env):
    """The chunk-and-merge loop ``run_cycles`` replaced, on the old lookup.

    Returns the result, the number of phase analyses it needed and the
    number of phases it entered: the first, and one more each time a
    chunk reaches its phase's end.  This loop analyzes every chunk;
    ``run_columns`` analyzes once per phase entered and keeps the
    analysis for the idle remainder.
    """
    if cycles <= 0:
        return QuantumResult.zero(), 0, 0
    result = QuantumResult.zero()
    position = start_instruction
    remaining = float(cycles)
    lookups = entered = 0
    left_in_phase = 0
    while remaining > 1e-9:
        chars, to_phase_end = _reference_lookup(app, position)
        analysis = analyze_phase(chars, model.core, model.memory, env)
        lookups += 1
        if left_in_phase == 0:
            entered += 1
        chunk_cycles = min(remaining, to_phase_end * analysis.cpi)
        instructions = int(round(chunk_cycles / analysis.cpi))
        if instructions <= 0:
            chunk = QuantumResult(instructions=0, cycles=remaining)
            result = result.merged_with(chunk)
            break
        chunk_cycles = instructions * analysis.cpi
        chunk = QuantumResult(
            instructions=instructions,
            cycles=chunk_cycles,
            ace_bit_cycles={
                k: v * chunk_cycles
                for k, v in analysis.ace_bits_per_cycle.items()
            },
            occupancy_bit_cycles={
                k: v * chunk_cycles
                for k, v in analysis.occupancy_bits_per_cycle.items()
            },
            memory_accesses=analysis.dram_accesses_per_instruction
            * instructions,
            l3_accesses=analysis.l3_accesses_per_instruction * instructions,
            branch_mispredictions=chars.branch_mpki / 1000.0 * instructions,
        )
        result = result.merged_with(chunk)
        position += instructions
        left_in_phase = to_phase_end - instructions
        remaining -= chunk_cycles
    return result, lookups, entered


@contextlib.contextmanager
def _analyses():
    """Record the phase of every environment tail evaluated inside the
    block: one per phase analysis, ``run_columns``'s included."""
    visited = []
    originals = mechanistic._big_tail, mechanistic._small_tail

    def recording(tail):
        def recorded(features, share, multiplier):
            visited.append(features.chars)
            return tail(features, share, multiplier)
        return recorded

    mechanistic._big_tail, mechanistic._small_tail = map(recording, originals)
    try:
        yield visited
    finally:
        mechanistic._big_tail, mechanistic._small_tail = originals


class TestRunCycles:
    @settings(max_examples=80, deadline=None)
    @given(
        name=st.sampled_from(BENCHMARK_NAMES),
        core_type=st.sampled_from(sorted(CORES)),
        instructions=st.sampled_from([7, 1_000, 300_000, 20_000_000]),
        start=st.floats(0.0, 2.5),
        budget=st.one_of(
            st.tuples(st.just("cycles"), st.floats(-5.0, 5.0)),
            st.tuples(st.just("cycles"), st.floats(1e-12, 1e-8)),
            # Up to a few passes over the profile.
            st.tuples(st.just("per_instruction"), st.floats(0.0, 6.0)),
        ),
        env=environments,
    )
    def test_matches_chunk_and_merge_loop(
        self, name, core_type, instructions, start, budget, env
    ):
        app = benchmark(name).scaled(instructions)
        model = _model(core_type)
        position = int(start * instructions)
        kind, value = budget
        cycles = value if kind == "cycles" else value * instructions
        expected, _, entered = _reference_run_cycles(
            model, app, position, cycles, env
        )
        with _analyses() as lookups:
            got = model.run_cycles(app, position, cycles, env)
        assert _result_fields(got) == _result_fields(expected)
        # Every phase entered is analyzed once.
        assert len(lookups) == entered

    def _multi_phase(self, instructions):
        return next(
            SUITE[name].scaled(instructions)
            for name in BENCHMARK_NAMES
            if len(SUITE[name].phases) > 2
        )

    def test_crosses_phases_and_wraps(self):
        app = self._multi_phase(100_000)
        model = _model("big")
        env = MemoryEnvironment(0.6, 1.3)
        start = app.phase_boundaries()[-2] - 10
        expected, lookups, _ = _reference_run_cycles(
            model, app, start, 2e6, env
        )
        got = model.run_cycles(app, start, 2e6, env)
        assert lookups > len(app.phases) + 1
        assert got.instructions > app.instructions
        assert _result_fields(got) == _result_fields(expected)

    @pytest.mark.parametrize("crossings", [0, 1, 3])
    @pytest.mark.parametrize("core_type", sorted(CORES))
    def test_crosses_phase_boundaries(self, core_type, crossings):
        phases = tuple((0.2, SUITE_PHASES[i]) for i in (0, 7, 14, 21, 28))
        app = BenchmarkProfile("five", 1_000_000, phases)
        model = _model(core_type)
        env = MemoryEnvironment(0.45, 1.7)
        bounds = app.phase_boundaries()
        cpis = [model.analyze(chars, env).cpi for _, chars in phases]
        # Start 100 instructions before the end of the first phase and
        # stop 50 instructions into the phase ``crossings`` later.
        start = bounds[1] - 100
        if crossings == 0:
            budget = 50 * cpis[0]
        else:
            budget = 100 * cpis[0] + 50 * cpis[crossings] + sum(
                (bounds[k + 1] - bounds[k]) * cpis[k]
                for k in range(1, crossings)
            )
        with _analyses() as visited:
            got = model.run_cycles(app, start, budget, env)
        expected, _, _ = _reference_run_cycles(
            model, app, start, budget, env
        )
        assert sum(a is not b for a, b in zip(visited, visited[1:])) == (
            crossings
        )
        assert _result_fields(got) == _result_fields(expected)
        layout = list(model.analyze(phases[0][1], env).ace_bits_per_cycle)
        assert list(got.ace_bit_cycles) == layout
        assert list(got.occupancy_bit_cycles) == layout

    def test_budget_too_small_for_one_instruction(self):
        app = benchmark("mcf").scaled(1_000_000)
        for core_type in sorted(CORES):
            model = _model(core_type)
            cpi = model.analyze(app.phase_at(0), ISOLATED).cpi
            got = model.run_cycles(app, 0, 0.4 * cpi, ISOLATED)
            expected, _, _ = _reference_run_cycles(
                model, app, 0, 0.4 * cpi, ISOLATED
            )
            assert got.instructions == 0
            assert got.cycles == 0.4 * cpi
            assert got.ace_bit_cycles == {}
            assert got.occupancy_bit_cycles == {}
            assert _result_fields(got) == _result_fields(expected)

    def test_idle_tail_after_committed_chunk(self):
        app = benchmark("povray").scaled(1_000_000)
        model = _model("big")
        cpi = model.analyze(app.phase_at(0), ISOLATED).cpi
        budget = 100.4 * cpi
        with _analyses() as visited:
            got = model.run_cycles(app, 0, budget, ISOLATED)
        expected, lookups, entered = _reference_run_cycles(
            model, app, 0, budget, ISOLATED
        )
        assert lookups == 2 and got.instructions == 100
        # The idle remainder reuses the phase's analysis.
        assert entered == 1 and len(visited) == 1
        assert _result_fields(got) == _result_fields(expected)


def _reference_lookup(profile, position):
    """The linear scans the two lookups replaced, kept verbatim."""
    pos = position % profile.instructions
    boundaries = profile.phase_boundaries()
    chars = profile.phases[-1][1]
    for i, (_, phase) in enumerate(profile.phases):
        if boundaries[i] <= pos < boundaries[i + 1]:
            chars = phase
            break
    left = profile.instructions - pos
    for i in range(len(profile.phases)):
        if boundaries[i] <= pos < boundaries[i + 1]:
            left = boundaries[i + 1] - pos
            break
    return chars, left


@st.composite
def _profiles(draw):
    weights = draw(st.lists(st.integers(1, 50), min_size=1, max_size=8))
    total = sum(weights)
    phases = tuple(
        (w / total, PhaseCharacteristics(branch_mpki=float(i)))
        for i, w in enumerate(weights)
    )
    instructions = draw(
        st.one_of(st.integers(1, 12), st.integers(13, 10**9))
    )
    return BenchmarkProfile("drawn", instructions, phases)


class TestPhaseLookup:
    @settings(max_examples=300, deadline=None)
    @given(profile=_profiles(), offset=st.integers(0, 3 * 10**9))
    def test_matches_linear_scan(self, profile, offset):
        position = offset % (3 * profile.instructions)
        chars, left = _reference_lookup(profile, position)
        assert profile.phase_span(position) == (chars, left)
        assert profile.phase_span(position)[0] is chars
        assert profile.phase_at(position) is chars
        assert profile.instructions_until_phase_change(position) == left

    def test_zero_width_phases_are_skipped(self):
        a, b, c = (PhaseCharacteristics(branch_mpki=i) for i in (1.0, 2.0, 3.0))
        profile = BenchmarkProfile("tiny", 3, ((0.1, a), (0.1, b), (0.8, c)))
        assert profile.phase_boundaries() == [0, 0, 1, 3]
        assert [profile.phase_span(p) for p in range(4)] == [
            (b, 1), (c, 2), (c, 1), (b, 1),
        ]
        for position in range(6):
            assert profile.phase_span(position) == _reference_lookup(
                profile, position
            )

    def test_scaled_profile_recomputes_boundaries(self):
        profile = benchmark("mcf")
        small = profile.scaled(1_000)
        assert small.phase_span(999)[1] == 1
        assert small == profile.scaled(1_000)
        assert hash(small) == hash(profile.scaled(1_000))
