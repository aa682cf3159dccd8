"""The trace-driven path's memo of isolated reference runs.

``run_trace_workload`` weights SSER by each application's isolated
big-core reference time.  Those runs are memoized by content -- (big
core, memory, profile, instructions, trace seed) -- so one mix under
several schedulers runs its reference passes once.  Each application's
reference run touches only its own private hierarchy, so a memo hit
must leave every ``RunResult`` exactly as a fresh computation does.
"""

import dataclasses
import inspect

import pytest

from repro.config import machine_1b1s
from repro.cores.ooo import OutOfOrderCoreModel
from repro.sim import tracedriven
from repro.sim.isolated import run_isolated
from repro.sim.serialize import run_result_to_dict
from repro.sim.tracedriven import (
    REFERENCE_MEMO_CAP,
    run_trace_workload,
    trace_applications,
)
from repro.workloads import benchmark

_INSTRUCTIONS = 3_000
_SCHEDULERS = ("random", "performance", "reliability")


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    """Each test starts from, and leaves behind, its own empty memo."""
    monkeypatch.setattr(tracedriven, "_reference_memo", {})


@pytest.fixture
def isolated_runs(monkeypatch):
    """Count the isolated passes the trace path really runs."""
    calls = []
    run_isolated = tracedriven.run_isolated

    def counting(model, app, *args, **kwargs):
        calls.append(app.name)
        return run_isolated(model, app, *args, **kwargs)

    monkeypatch.setattr(tracedriven, "run_isolated", counting)
    return calls


def _run(mix, scheduler, *, machine=None, seed=1):
    result = run_trace_workload(
        machine or machine_1b1s(), mix, scheduler,
        instructions=_INSTRUCTIONS, seed=seed,
    )
    return run_result_to_dict(result)


class TestExact:
    def test_warm_memo_matches_emptied_memo(self, isolated_runs):
        mix = ("milc", "mcf")
        cold = {}
        for scheduler in _SCHEDULERS:
            tracedriven._reference_memo.clear()
            cold[scheduler] = _run(mix, scheduler)
        # Warm-up and measured pass per application, every time.
        assert len(isolated_runs) == 2 * 2 * len(_SCHEDULERS)
        del isolated_runs[:]
        for scheduler in _SCHEDULERS:
            assert _run(mix, scheduler) == cold[scheduler], scheduler
        assert isolated_runs == []

    def test_entries_equal_the_shared_model_loop(self):
        """Each entry is what one isolated model shared by the whole
        mix measured, warm-up pass first, before the memo existed."""
        machine = machine_1b1s()
        mix = ("milc", "mcf")
        _run(mix, "random")
        model = OutOfOrderCoreModel(machine.big, machine.memory)
        apps = trace_applications(mix, _INSTRUCTIONS, seed=1)
        for i, app in enumerate(apps):
            run_isolated(model, app)
            key = (machine.big, machine.memory, benchmark(app.name),
                   _INSTRUCTIONS, 1 + i)
            assert tracedriven._reference_memo[key] == (
                run_isolated(model, app).cycles
            )

    def test_partial_hit_matches_fresh_run(self, isolated_runs):
        _run(("milc", "mcf"), "reliability")
        del isolated_runs[:]
        # Slot 0 (milc, seed + 0) hits; slot 1 is a new application.
        warm = _run(("milc", "gobmk"), "reliability")
        assert isolated_runs == ["gobmk", "gobmk"]
        tracedriven._reference_memo.clear()
        assert warm == _run(("milc", "gobmk"), "reliability")

    def test_other_trace_seed_misses(self, isolated_runs):
        _run(("milc", "mcf"), "random", seed=1)
        # Seed 2 moves milc to trace seed 2 and mcf to trace seed 3.
        _run(("milc", "mcf"), "random", seed=2)
        assert len(isolated_runs) == 8


class TestKey:
    def _variant_misses(self, isolated_runs, machine):
        mix = ("milc", "mcf")
        _run(mix, "random")
        del isolated_runs[:]
        variant = _run(mix, "random", machine=machine)
        assert len(isolated_runs) == 4
        assert len(tracedriven._reference_memo) == 4
        tracedriven._reference_memo.clear()
        assert variant == _run(mix, "random", machine=machine)

    def test_other_memory_config_misses(self, isolated_runs):
        machine = machine_1b1s()
        memory = dataclasses.replace(
            machine.memory, dram_latency_ns=2 * machine.memory.dram_latency_ns
        )
        self._variant_misses(
            isolated_runs, dataclasses.replace(machine, memory=memory)
        )

    def test_other_big_core_misses(self, isolated_runs):
        machine = machine_1b1s()
        big = dataclasses.replace(
            machine.big, frequency_ghz=machine.big.frequency_ghz / 2
        )
        self._variant_misses(
            isolated_runs, dataclasses.replace(machine, big=big)
        )

    def test_small_core_is_not_in_the_key(self, isolated_runs):
        machine = machine_1b1s()
        small = dataclasses.replace(
            machine.small, frequency_ghz=machine.small.frequency_ghz / 2
        )
        _run(("milc", "mcf"), "random")
        del isolated_runs[:]
        _run(("milc", "mcf"), "random",
             machine=dataclasses.replace(machine, small=small))
        assert isolated_runs == []


class TestCap:
    def test_cap_is_a_module_constant(self):
        assert isinstance(REFERENCE_MEMO_CAP, int)
        assert REFERENCE_MEMO_CAP >= 16
        params = inspect.signature(run_trace_workload).parameters
        assert not [p for p in params if "memo" in p or "chunk" in p]
        source = inspect.getsource(tracedriven)
        assert "os.environ" not in source and "getenv" not in source

    def test_memo_never_exceeds_its_cap(self, monkeypatch):
        monkeypatch.setattr(tracedriven, "REFERENCE_MEMO_CAP", 3)
        sizes = []
        for seed in range(4):
            result = _run(("milc", "mcf"), "random", seed=seed)
            sizes.append(len(tracedriven._reference_memo))
            assert len(tracedriven._reference_memo) <= 3
        # Two new entries a run; a full memo is emptied before the
        # next entry goes in.
        assert sizes == [2, 1, 3, 2]
        # Entries written after the memo was emptied are still exact.
        tracedriven._reference_memo.clear()
        assert result == _run(("milc", "mcf"), "random", seed=3)
