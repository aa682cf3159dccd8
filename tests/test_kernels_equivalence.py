"""Kernel-vs-reference equivalence for the window kernels.

The vectorized kernels in `repro.kernels.window` must reproduce the
straight-line references in `repro.kernels.reference` exactly:
element-wise identical timings, identical committed counts, and
identical cache state (including at the budget break, and with an L3
shared between an out-of-order and an in-order model).
"""

import dataclasses

import numpy as np
import pytest

from repro.config import MemoryConfig, big_core_config, small_core_config
from repro.cores.base import ISOLATED, MemoryEnvironment
from repro.cores.inorder import InOrderCoreModel
from repro.cores.ooo import OutOfOrderCoreModel
from repro.cores.tracebase import TraceApplication
from repro.isa.instruction import InstructionClass
from repro.isa.trace import Trace
from repro.kernels import window
from repro.kernels.reference import (
    reference_inorder_run,
    reference_ooo_window,
)
from repro.memory.cache import SetAssociativeCache
from repro.workloads import benchmark
from repro.workloads.generator import generate_trace

_TIMING_FIELDS = (
    "classes",
    "dispatch",
    "issue",
    "finish",
    "commit",
    "latency",
    "mispredicted",
)


def _app(name="soplex", instructions=20_000, seed=0):
    return TraceApplication(
        generate_trace(benchmark(name), instructions, seed=seed)
    )


def _cache_state(hierarchy):
    return (
        [
            (c.stats.accesses, c.stats.misses, c._clock, c._sets)
            for c in (hierarchy.l1d, hierarchy.l2, hierarchy.l3)
        ],
        hierarchy.l3_accesses,
        hierarchy.dram_accesses,
    )


def _assert_timing_equal(kernel, reference, context=""):
    assert kernel.committed == reference.committed, context
    assert kernel.elapsed_cycles == reference.elapsed_cycles, context
    for field in _TIMING_FIELDS:
        a = getattr(kernel, field)
        b = getattr(reference, field)
        assert a.dtype == b.dtype, (context, field)
        assert np.array_equal(a, b), (context, field)


def _assert_inorder_equal(kernel, reference, context=""):
    assert kernel.instructions == reference.instructions, context
    assert kernel.cycles == reference.cycles, context
    assert kernel.memory_accesses == reference.memory_accesses, context
    assert kernel.l3_accesses == reference.l3_accesses, context
    assert (
        kernel.branch_mispredictions == reference.branch_mispredictions
    ), context
    # The kernel's accounting is vectorized (reassociated sums):
    # equal up to floating-point rounding, not bit-identical.
    for kind in kernel.ace_bit_cycles:
        assert kernel.ace_bit_cycles[kind] == pytest.approx(
            reference.ace_bit_cycles[kind], rel=1e-12, abs=1e-9
        ), (context, kind)
        assert kernel.occupancy_bit_cycles[kind] == pytest.approx(
            reference.occupancy_bit_cycles[kind], rel=1e-12, abs=1e-9
        ), (context, kind)


class TestOutOfOrderKernel:
    @pytest.mark.parametrize("name", ("soplex", "mcf", "povray", "namd"))
    @pytest.mark.parametrize("budget", (3.0, 250.0, 15_000.0))
    def test_window_identical_to_reference(self, name, budget):
        app_k, app_r = _app(name), _app(name)
        model_k = OutOfOrderCoreModel(big_core_config(), MemoryConfig())
        model_r = OutOfOrderCoreModel(big_core_config(), MemoryConfig())
        timing_k = model_k.simulate_window(app_k, 0, budget, ISOLATED)
        timing_r = reference_ooo_window(model_r, app_r, 0, budget, ISOLATED)
        _assert_timing_equal(timing_k, timing_r, (name, budget))
        assert _cache_state(model_k.hierarchy_for(app_k)) == _cache_state(
            model_r.hierarchy_for(app_r)
        )

    def test_fuzzed_windows_identical(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            name = ("soplex", "lbm", "gcc")[int(rng.integers(3))]
            instructions = int(rng.integers(2_000, 12_000))
            seed = int(rng.integers(0, 1000))
            start = int(rng.integers(0, 2 * instructions))
            budget = float(rng.choice([5, 90, 1_200, 40_000]))
            app_k = _app(name, instructions, seed)
            app_r = _app(name, instructions, seed)
            model_k = OutOfOrderCoreModel(big_core_config(), MemoryConfig())
            model_r = OutOfOrderCoreModel(big_core_config(), MemoryConfig())
            timing_k = model_k.simulate_window(app_k, start, budget, ISOLATED)
            timing_r = reference_ooo_window(
                model_r, app_r, start, budget, ISOLATED
            )
            context = (name, instructions, seed, start, budget)
            _assert_timing_equal(timing_k, timing_r, context)
            assert _cache_state(model_k.hierarchy_for(app_k)) == _cache_state(
                model_r.hierarchy_for(app_r)
            ), context

    def test_multi_window_state_carry_over(self):
        app_k, app_r = _app("soplex", 40_000), _app("soplex", 40_000)
        model_k = OutOfOrderCoreModel(big_core_config(), MemoryConfig())
        model_r = OutOfOrderCoreModel(big_core_config(), MemoryConfig())
        position = 0
        for _ in range(8):
            timing_k = model_k.simulate_window(app_k, position, 1_800.0,
                                               ISOLATED)
            timing_r = reference_ooo_window(model_r, app_r, position, 1_800.0,
                                            ISOLATED)
            _assert_timing_equal(timing_k, timing_r, position)
            assert _cache_state(
                model_k.hierarchy_for(app_k)
            ) == _cache_state(model_r.hierarchy_for(app_r)), position
            position += timing_k.committed

    def test_run_cycles_results_identical(self):
        app_k, app_r = _app("mcf"), _app("mcf")
        model_k = OutOfOrderCoreModel(big_core_config(), MemoryConfig())
        model_r = OutOfOrderCoreModel(big_core_config(), MemoryConfig())
        result_k = model_k.run_cycles(app_k, 0, 5_000.0, ISOLATED)
        timing_r = reference_ooo_window(model_r, app_r, 0, 5_000.0, ISOLATED)
        ace_r, occ_r = model_r._account(timing_r)
        assert result_k.instructions == timing_r.committed
        assert result_k.cycles == timing_r.elapsed_cycles
        assert result_k.ace_bit_cycles == ace_r
        assert result_k.occupancy_bit_cycles == occ_r


class TestInOrderKernel:
    @pytest.mark.parametrize("name", ("soplex", "mcf"))
    @pytest.mark.parametrize("budget", (9.0, 700.0, 30_000.0))
    def test_run_identical_to_reference(self, name, budget):
        app_k, app_r = _app(name), _app(name)
        model_k = InOrderCoreModel(small_core_config(), MemoryConfig())
        model_r = InOrderCoreModel(small_core_config(), MemoryConfig())
        result_k = model_k.run_cycles(app_k, 0, budget, ISOLATED)
        result_r = reference_inorder_run(model_r, app_r, 0, budget, ISOLATED)
        _assert_inorder_equal(result_k, result_r, (name, budget))
        assert _cache_state(model_k.hierarchy_for(app_k)) == _cache_state(
            model_r.hierarchy_for(app_r)
        )

    def test_zero_and_negative_budgets(self):
        app = _app("soplex", 5_000)
        model = InOrderCoreModel(small_core_config(), MemoryConfig())
        assert model.run_cycles(app, 0, 0.0, ISOLATED).instructions == 0
        assert model.run_cycles(app, 0, -5.0, ISOLATED).instructions == 0


class TestBudgetBreakOffByOne:
    """Pin the documented budget-break cache semantics.

    ``simulate_window`` accesses the cache for the first *uncommitted*
    instruction (the one whose commit overran the budget) before
    breaking.  The kernels preserve this pre-kernel behaviour exactly
    -- see DESIGN.md -- so the cache sees `committed` accesses plus
    the break instruction's, when that instruction is a load or store.
    """

    def test_break_instruction_access_is_kept(self):
        from repro.isa.instruction import InstructionClass
        from repro.isa.trace import Trace

        n = 4000
        classes = np.full(n, InstructionClass.LOAD, dtype=np.int8)
        trace = Trace(
            classes=classes,
            dep1=np.zeros(n, dtype=np.int32),
            dep2=np.zeros(n, dtype=np.int32),
            addresses=(np.arange(n, dtype=np.int64) * 64),
            mispredicted=np.zeros(n, dtype=bool),
            icache_miss=np.zeros(n, dtype=bool),
            name="loads",
        )
        app = TraceApplication(trace)
        model = OutOfOrderCoreModel(big_core_config(), MemoryConfig())
        # Cold-cache loads miss to DRAM (~hundreds of cycles), so a
        # few-hundred-cycle budget commits some but not all of them.
        budget = 400.0
        timing = model.simulate_window(app, 0, budget, ISOLATED)
        hierarchy = model.hierarchy_for(app)
        assert 0 < timing.committed < n  # the budget actually broke
        # Off-by-one: committed loads plus the break instruction's.
        assert hierarchy.l1d.stats.accesses == timing.committed + 1

    def test_off_by_one_matches_reference(self):
        app_k, app_r = _app("mcf", 8_000), _app("mcf", 8_000)
        model_k = OutOfOrderCoreModel(big_core_config(), MemoryConfig())
        model_r = OutOfOrderCoreModel(big_core_config(), MemoryConfig())
        timing_k = model_k.simulate_window(app_k, 0, 200.0, ISOLATED)
        timing_r = reference_ooo_window(model_r, app_r, 0, 200.0, ISOLATED)
        assert timing_k.committed == timing_r.committed
        hier_k = model_k.hierarchy_for(app_k)
        hier_r = model_r.hierarchy_for(app_r)
        assert (
            hier_k.l1d.stats.accesses == hier_r.l1d.stats.accesses
        )
        assert _cache_state(hier_k) == _cache_state(hier_r)


def _chained_app(name, instructions, seed=0):
    """A generated trace whose every instruction also depends on the one
    before it.  Each finish time then exceeds the previous one by at
    least a cycle, and so do the commit (and in-order writeback) times,
    so any instruction can be made the budget's break instruction."""
    trace = generate_trace(benchmark(name), instructions, seed=seed)
    dep1 = np.ones(len(trace), dtype=trace.dep1.dtype)
    dep1[0] = 0
    return TraceApplication(
        Trace(
            classes=trace.classes,
            dep1=dep1,
            dep2=trace.dep2,
            addresses=trace.addresses,
            mispredicted=trace.mispredicted,
            icache_miss=trace.icache_miss,
            name=trace.name,
        )
    )


def _run_ooo(model, app, budget, start=0):
    return model.simulate_window(app, start, budget, ISOLATED)


def _run_inorder(model, app, budget, start=0):
    return model.run_cycles(app, start, budget, ISOLATED)


def _committed(result):
    if hasattr(result, "committed"):  # an OoO WindowTiming
        return result.committed
    return result.instructions


_KERNELS = {
    "ooo": (
        lambda: OutOfOrderCoreModel(big_core_config(), MemoryConfig()),
        _run_ooo,
        reference_ooo_window,
    ),
    "inorder": (
        lambda: InOrderCoreModel(small_core_config(), MemoryConfig()),
        _run_inorder,
        reference_inorder_run,
    ),
}


def _budget_breaking_at(kernel, make_app, index):
    """The smallest whole-cycle budget (at least 1) under which a fresh
    model commits exactly ``index`` instructions of the chained trace,
    so instruction ``index`` is the break instruction."""
    new_model, run, _ = _KERNELS[kernel]

    def committed(budget):
        return _committed(run(new_model(), make_app(), float(budget)))

    hi = 1
    while committed(hi) < index:
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if committed(mid) >= index:
            hi = mid
        else:
            lo = mid + 1
    assert committed(lo) == index  # commit times are >= 1 cycle apart
    return float(lo)


def _assert_kernel_matches_reference(kernel, make_app, budget, context):
    new_model, run, reference = _KERNELS[kernel]
    model_k, model_r = new_model(), new_model()
    app_k, app_r = make_app(), make_app()
    result_k = run(model_k, app_k, budget)
    result_r = reference(model_r, app_r, 0, budget, ISOLATED)
    if kernel == "ooo":
        _assert_timing_equal(result_k, result_r, context)
    else:
        _assert_inorder_equal(result_k, result_r, context)
    assert _cache_state(model_k.hierarchy_for(app_k)) == _cache_state(
        model_r.hierarchy_for(app_r)
    ), context
    return result_k


def _first_chunks(count):
    return list(window._chunk_bounds(10**6))[:count]


class TestChunkEdges:
    """Exact at the edges of the doubling chunk schedule.

    The kernels convert a chunk's columns up front and walk the caches
    as the recurrence reaches each access, so the edges of a chunk are
    where an off-by-one would show.  Instructions can only be placed
    at a chunk edge in a window whose commit times strictly increase,
    hence the chained traces.
    """

    @pytest.mark.parametrize("kernel", ("ooo", "inorder"))
    @pytest.mark.parametrize("name", ("soplex", "mcf"))
    @pytest.mark.parametrize("edge", (
        "first of chunk 1", "last of chunk 1",
        "first of chunk 2", "last of chunk 2",
    ))
    def test_break_at_chunk_edge(self, kernel, name, edge):
        position, chunk = edge.split(" of chunk ")
        c0, c1 = _first_chunks(2)[int(chunk) - 1]
        index = c0 if position == "first" else c1 - 1

        def make_app():
            return _chained_app(name, 3_000)

        budget = _budget_breaking_at(kernel, make_app, index)
        result = _assert_kernel_matches_reference(
            kernel, make_app, budget, (kernel, name, edge, budget)
        )
        assert _committed(result) == index

    @pytest.mark.parametrize("kernel", ("ooo", "inorder"))
    @pytest.mark.parametrize("chunks", (2, 3))
    @pytest.mark.parametrize("breaks", (False, True))
    def test_window_exactly_a_sum_of_chunks(self, kernel, chunks, breaks):
        # The trace ends where a chunk does, so the window does too.
        length = _first_chunks(chunks)[-1][1]

        def make_app():
            return _chained_app("soplex", length, seed=4)

        if breaks:  # on the window's last instruction
            budget = _budget_breaking_at(kernel, make_app, length - 1)
        else:
            budget = 1e6
        result = _assert_kernel_matches_reference(
            kernel, make_app, budget, (kernel, chunks, breaks)
        )
        assert _committed(result) == (length - 1 if breaks else length)


class TestPrecomputeWaste:
    """The doubling schedule bounds the instructions whose columns are
    converted by about twice those committed.  With a fixed
    4096-instruction first chunk, a 40-cycle big-core window converted
    all of its 40 x 4 + 1024 = 1,184 instructions to commit a few
    dozen."""

    @pytest.mark.parametrize("kernel", ("ooo", "inorder"))
    @pytest.mark.parametrize("name", ("soplex", "mcf"))
    @pytest.mark.parametrize("budget", (40.0, 400.0))
    def test_precompute_within_twice_committed(
        self, monkeypatch, kernel, name, budget
    ):
        converted = []
        chunk_columns = window._chunk_columns

        def spy(trace, c0, c1, *args):
            converted.append(c1 - c0)
            return chunk_columns(trace, c0, c1, *args)

        new_model, run, _ = _KERNELS[kernel]
        model, app = new_model(), _app(name)
        # Mid-run, as a sampling slice is: warm caches first.
        start = _committed(run(model, app, 10_000.0))
        monkeypatch.setattr(window, "_chunk_columns", spy)
        committed = _committed(run(model, app, budget, start))
        assert 0 < committed
        assert converted, "the spy saw no chunk"
        assert sum(converted) <= (
            2 * (committed + 1) + window._FIRST_CHUNK
        ), (committed, converted)


def _shared_l3_models():
    """One OoO and one in-order model sharing an L3, as the two core
    types of a trace-driven run do."""
    l3 = SetAssociativeCache(MemoryConfig().l3, "shared-l3")
    return (
        OutOfOrderCoreModel(big_core_config(), MemoryConfig(), shared_l3=l3),
        InOrderCoreModel(small_core_config(), MemoryConfig(), shared_l3=l3),
    )


class TestSharedL3UnderContention:
    """Chained windows on two applications, alternating between an OoO
    and an in-order model that share an L3, under DRAM contention --
    the conditions of every window ``run_trace_workload`` runs."""

    @pytest.mark.parametrize("multiplier", (1.0, 1.37, 2.5))
    def test_alternating_windows_match_reference(self, multiplier):
        env = MemoryEnvironment(dram_latency_multiplier=multiplier)
        kernel_models, reference_models = (
            _shared_l3_models(), _shared_l3_models()
        )
        specs = (("mcf", 0), ("soplex", 1))
        apps_k = [_app(name, 20_000, seed) for name, seed in specs]
        apps_r = [_app(name, 20_000, seed) for name, seed in specs]
        positions = [0, 0]
        budgets = (3.0, 40.0, 400.0, 4_000.0)
        for step in range(2 * len(budgets)):
            budget = budgets[step % len(budgets)]
            core = step % 2  # 0: OoO, 1: in-order
            j = (step // 2) % 2
            model_k, model_r = kernel_models[core], reference_models[core]
            context = (multiplier, step, core, j, budget)
            if core == 0:
                result_k = model_k.simulate_window(
                    apps_k[j], positions[j], budget, env
                )
                result_r = reference_ooo_window(
                    model_r, apps_r[j], positions[j], budget, env
                )
                _assert_timing_equal(result_k, result_r, context)
                positions[j] += result_k.committed
            else:
                result_k = model_k.run_cycles(
                    apps_k[j], positions[j], budget, env
                )
                result_r = reference_inorder_run(
                    model_r, apps_r[j], positions[j], budget, env
                )
                _assert_inorder_equal(result_k, result_r, context)
                positions[j] += result_k.instructions
            for model_k, model_r in zip(kernel_models, reference_models):
                for app_k, app_r in zip(apps_k, apps_r):
                    assert _cache_state(
                        model_k.hierarchy_for(app_k)
                    ) == _cache_state(model_r.hierarchy_for(app_r)), context
        assert all(positions)


def _far_linked_app(link=300):
    """An ``mcf`` trace whose first mispredicted branch past position
    400 depends on a load at least ``link`` instructions before it:
    farther back than the ROB, the issue queue or the latch slots
    reach, and than any dependence the generator draws.  Returns the
    application and the branch's position."""
    trace = generate_trace(benchmark("mcf"), 20_000, seed=0)
    branch = int(np.flatnonzero(trace.mispredicted[400:])[0]) + 400
    loads = np.flatnonzero(trace.classes[:branch - link + 1]
                           == InstructionClass.LOAD)
    dep1 = trace.dep1.copy()
    dep1[branch] = branch - int(loads[-1])
    app = TraceApplication(dataclasses.replace(trace, dep1=dep1))
    return app, branch


class TestWindowsOnTheTrace:
    """The kernels read the trace itself, with ``-inf`` timings before
    the window, where the references read a sliced ``Trace`` whose
    dependences reaching before the window are clamped to "ready"."""

    @pytest.mark.parametrize("multiplier", (1.0, 2.5))
    def test_starts_inside_a_dependence_reach(self, multiplier):
        env = MemoryEnvironment(dram_latency_multiplier=multiplier)
        app_k, branch = _far_linked_app()
        app_r, _ = _far_linked_app()
        length = app_k.instructions
        assert app_k.trace.dep1[branch] > max(
            big_core_config().rob.entries,
            small_core_config().pipeline_latches.entries,
        )
        # Every start after the far load up to the branch, so that the
        # branch's dependence reaches before the window, and the 64
        # starts after the branch; then some of the same starts past
        # the trace end, where windows wrap.
        load = branch - int(app_k.trace.dep1[branch])
        starts = list(range(load + 1, branch + 65))
        starts += [s + length for s in starts[::16]]
        starts += [s + 3 * length for s in starts[::64]]
        kernel_models, reference_models = (
            _shared_l3_models(), _shared_l3_models()
        )
        for step, start in enumerate(starts):
            budget = (3.0, 60.0, 250.0)[step % 3]
            context = (multiplier, start, budget)
            ooo_k, inorder_k = kernel_models
            ooo_r, inorder_r = reference_models
            _assert_timing_equal(
                ooo_k.simulate_window(app_k, start, budget, env),
                reference_ooo_window(ooo_r, app_r, start, budget, env),
                context,
            )
            _assert_inorder_equal(
                inorder_k.run_cycles(app_k, start, budget, env),
                reference_inorder_run(inorder_r, app_r, start, budget, env),
                context,
            )
            for model_k, model_r in zip(kernel_models, reference_models):
                assert _cache_state(
                    model_k.hierarchy_for(app_k)
                ) == _cache_state(model_r.hierarchy_for(app_r)), context

    @pytest.mark.parametrize("kernel", ("ooo", "inorder"))
    def test_budget_breaking_on_the_first_instruction(self, kernel):
        new_model, run, reference = _KERNELS[kernel]
        app_k, branch = _far_linked_app()
        app_r, _ = _far_linked_app()
        model_k, model_r = new_model(), new_model()
        length = app_k.instructions
        for start in (0, branch - 5, branch, length - 1, branch + 2 * length):
            result_k = run(model_k, app_k, 1.0, start)
            result_r = reference(model_r, app_r, start, 1.0, ISOLATED)
            assert _committed(result_k) == 0, start
            if kernel == "ooo":
                _assert_timing_equal(result_k, result_r, start)
            else:
                _assert_inorder_equal(result_k, result_r, start)
            assert _cache_state(model_k.hierarchy_for(app_k)) == _cache_state(
                model_r.hierarchy_for(app_r)
            ), start

    @pytest.mark.parametrize("kernel", ("ooo", "inorder"))
    def test_no_trace_is_built_per_window(self, monkeypatch, kernel):
        new_model, run, _ = _KERNELS[kernel]
        app, branch = _far_linked_app()
        model = new_model()

        def forbidden(*args, **kwargs):
            raise AssertionError("a window kernel built a Trace")

        monkeypatch.setattr(TraceApplication, "window", forbidden)
        monkeypatch.setattr(Trace, "slice", forbidden)
        for start in (0, branch - 10, branch + 3 * app.instructions):
            for budget in (1.0, 40.0, 3_000.0):
                run(model, app, budget, start)
