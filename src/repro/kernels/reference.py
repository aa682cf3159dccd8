"""Straight-line reference implementations of the window models.

These are the pre-kernel per-instruction implementations of the
out-of-order :meth:`~repro.cores.ooo.OutOfOrderCoreModel.simulate_window`
and the in-order :meth:`~repro.cores.inorder.InOrderCoreModel.run_cycles`,
kept verbatim as the correctness oracle for the vectorized kernels in
:mod:`repro.kernels.window`.  They go through the scalar
:meth:`~repro.memory.hierarchy.CacheHierarchy.access_data` path, one
enum construction and one cache call per instruction.

The differential fuzzer (:func:`repro.check.differential.fuzz`) and
the equivalence tests run fuzzed windows through both implementations
and require element-wise identical timings, identical cache statistics
and identical committed counts; `repro bench` times both to report the
kernel speedup.  Do not "optimize" this module -- its slowness is the
baseline being measured against.
"""

from __future__ import annotations

import numpy as np

from repro.config.structures import StructureKind
from repro.cores.base import MemoryEnvironment, QuantumResult
from repro.isa.instruction import (
    InstructionClass,
    fu_bits_table,
    latency_table,
)

#: Instructions a window holds beyond ``budget x width``: an additive
#: slack, so a window never runs out before its budget breaks.
_WINDOW_SLACK = 1024

#: Cycles a committed store occupies the in-order store queue.
_STORE_DRAIN = 3.0


def reference_ooo_window(
    model,
    app,
    start_instruction: int,
    cycles: float,
    env: MemoryEnvironment,
):
    """Pre-kernel per-instruction OoO window timing computation.

    Returns the same :class:`~repro.cores.ooo.WindowTiming` the
    vectorized kernel produces; see the module docstring.
    """
    from repro.cores.ooo import WindowTiming

    core = model.core
    assert core.rob is not None and core.load_queue is not None
    budget = float(cycles)
    window = app.window(
        start_instruction, int(budget * core.width) + _WINDOW_SLACK
    )
    n = len(window)
    hierarchy = model.hierarchy_for(app)
    dram_extra = (
        model.dram_latency_cycles(env) - hierarchy.dram_latency_cycles
    )

    latencies = latency_table()
    width = core.width
    rob_size = core.rob.entries
    iq_size = core.issue_queue.entries
    lq_size = core.load_queue.entries
    sq_size = core.store_queue.entries
    depth = core.frontend_depth
    icache_penalty = model.memory.l2.latency_cycles

    classes = window.classes
    dep1 = window.dep1
    dep2 = window.dep2
    addresses = window.addresses
    mispredicted = window.mispredicted
    icache_miss = window.icache_miss

    dispatch = np.zeros(n, dtype=np.float64)
    issue = np.zeros(n, dtype=np.float64)
    finish = np.zeros(n, dtype=np.float64)
    commit = np.zeros(n, dtype=np.float64)
    latency_out = np.zeros(n, dtype=np.float64)
    load_ring: list[int] = []
    store_ring: list[int] = []
    div_free = {InstructionClass.INT_DIV: 0.0, InstructionClass.FP_DIV: 0.0}

    fetch_ready = 0.0
    committed = 0
    end_time = 0.0
    for i in range(n):
        cls = InstructionClass(classes[i])
        if icache_miss[i]:
            fetch_ready += icache_penalty
        t_dispatch = max(
            fetch_ready,
            dispatch[i - width] + 1.0 if i >= width else 0.0,
        )
        if i >= rob_size:
            t_dispatch = max(t_dispatch, commit[i - rob_size])
        if i >= iq_size:
            t_dispatch = max(t_dispatch, issue[i - iq_size])
        if cls == InstructionClass.LOAD and len(load_ring) >= lq_size:
            t_dispatch = max(t_dispatch, commit[load_ring[-lq_size]])
        if cls == InstructionClass.STORE and len(store_ring) >= sq_size:
            t_dispatch = max(t_dispatch, commit[store_ring[-sq_size]])
        dispatch[i] = t_dispatch

        ready = t_dispatch + 1.0
        if dep1[i]:
            ready = max(ready, finish[i - dep1[i]])
        if dep2[i]:
            ready = max(ready, finish[i - dep2[i]])
        if cls in div_free:
            ready = max(ready, div_free[cls])
        issue[i] = ready

        if cls == InstructionClass.LOAD:
            outcome = hierarchy.access_data(int(addresses[i]))
            latency = outcome.latency_cycles
            if outcome.level == "dram":
                latency += dram_extra
            load_ring.append(i)
        elif cls == InstructionClass.STORE:
            # Stores write back at commit; the cache access is for
            # hit/miss statistics, the pipeline sees unit latency.
            hierarchy.access_data(int(addresses[i]))
            latency = float(latencies[cls])
            store_ring.append(i)
        else:
            latency = float(latencies[cls])
        finish[i] = issue[i] + latency
        latency_out[i] = latency
        if cls in div_free:
            div_free[cls] = finish[i]
        if mispredicted[i]:
            fetch_ready = max(fetch_ready, finish[i] + depth)

        t_commit = finish[i] + 1.0
        if i >= 1:
            t_commit = max(t_commit, commit[i - 1])
        if i >= width:
            t_commit = max(t_commit, commit[i - width] + 1.0)
        commit[i] = t_commit
        if t_commit > budget:
            break
        committed = i + 1
        end_time = t_commit

    elapsed = budget if committed < n else max(end_time, 1.0)
    return WindowTiming(
        classes=classes[:committed].copy(),
        dispatch=dispatch[:committed],
        issue=issue[:committed],
        finish=finish[:committed],
        commit=commit[:committed],
        latency=latency_out[:committed],
        mispredicted=mispredicted[:committed].copy(),
        committed=committed,
        elapsed_cycles=elapsed,
    )


def reference_inorder_run(
    model,
    app,
    start_instruction: int,
    cycles: float,
    env: MemoryEnvironment,
) -> QuantumResult:
    """Pre-kernel per-instruction in-order scoreboard execution."""
    from repro.cores.inorder import (
        TIMESTAMP_CLIP,
        _ARCH_REG_LIVE_FRACTION,
    )

    if cycles <= 0:
        return QuantumResult.zero()
    core = model.core
    assert core.pipeline_latches is not None
    budget = float(cycles)
    window = app.window(
        start_instruction, int(budget * core.width) + _WINDOW_SLACK
    )
    n = len(window)
    if n == 0:
        return QuantumResult(instructions=0, cycles=budget)
    hierarchy = model.hierarchy_for(app)
    dram_extra = model.dram_latency_cycles(env) - hierarchy.dram_latency_cycles
    l3_start = hierarchy.l3_accesses
    dram_start = hierarchy.dram_accesses

    latencies = latency_table()
    fu_bits = fu_bits_table()
    width = core.width
    depth = core.frontend_depth
    latch_bits = core.pipeline_latches.bits_per_entry
    iq_bits = core.issue_queue.bits_per_entry
    sq_bits = core.store_queue.bits_per_entry
    icache_penalty = model.memory.l2.latency_cycles

    classes = window.classes
    dep1 = window.dep1
    dep2 = window.dep2
    addresses = window.addresses
    mispredicted = window.mispredicted
    icache_miss = window.icache_miss

    fetch = np.zeros(n, dtype=np.float64)
    issue = np.zeros(n, dtype=np.float64)
    finish = np.zeros(n, dtype=np.float64)
    wb = np.zeros(n, dtype=np.float64)
    div_free = {InstructionClass.INT_DIV: 0.0, InstructionClass.FP_DIV: 0.0}
    latch_slots = core.pipeline_latches.entries

    ace = {
        StructureKind.PIPELINE_LATCHES: 0.0,
        StructureKind.ISSUE_QUEUE: 0.0,
        StructureKind.STORE_QUEUE: 0.0,
        StructureKind.REGISTER_FILE: 0.0,
        StructureKind.FUNCTIONAL_UNITS: 0.0,
    }
    occupancy = dict(ace)

    fetch_ready = 0.0
    committed = 0
    end_time = 0.0
    for i in range(n):
        cls = InstructionClass(classes[i])
        if icache_miss[i]:
            fetch_ready += icache_penalty
        # Fetch: at most `width` per cycle, and only when a
        # pipeline-latch slot is free (slots are held from fetch
        # to writeback, so stalls back-pressure the front end and
        # instructions sit in the latches during them).
        t_fetch = max(
            fetch_ready,
            fetch[i - width] + 1.0 if i >= width else 0.0,
        )
        if i >= latch_slots:
            t_fetch = max(t_fetch, wb[i - latch_slots])
        fetch[i] = t_fetch

        # In-order issue after traversing the front-end stages:
        # after the previous instruction, at most `width` per
        # cycle, once operands are ready (stall-on-use).
        t_issue = max(t_fetch + depth - 2.0, issue[i - 1] if i >= 1 else 0.0)
        if i >= width:
            t_issue = max(t_issue, issue[i - width] + 1.0)
        if dep1[i]:
            t_issue = max(t_issue, finish[i - dep1[i]])
        if dep2[i]:
            t_issue = max(t_issue, finish[i - dep2[i]])
        if cls in div_free:
            t_issue = max(t_issue, div_free[cls])
        issue[i] = t_issue

        if cls == InstructionClass.LOAD:
            outcome = hierarchy.access_data(int(addresses[i]))
            latency = outcome.latency_cycles
            if outcome.level == "dram":
                latency += dram_extra
        elif cls == InstructionClass.STORE:
            hierarchy.access_data(int(addresses[i]))
            latency = float(latencies[cls])
        else:
            latency = float(latencies[cls])
        finish[i] = t_issue + latency
        if cls in div_free:
            div_free[cls] = finish[i]
        if mispredicted[i]:
            fetch_ready = max(fetch_ready, finish[i] + depth)

        writeback = finish[i] + 1.0
        wb[i] = writeback
        if writeback > budget:
            break
        committed = i + 1
        end_time = writeback

        # -- ACE accounting: fetch-to-writeback in the latches --
        residency = min(writeback - t_fetch, TIMESTAMP_CLIP)
        is_nop = cls == InstructionClass.NOP
        occupancy[StructureKind.PIPELINE_LATCHES] += residency * latch_bits
        if not is_nop:
            ace[StructureKind.PIPELINE_LATCHES] += residency * latch_bits
            fu_res = min(latency, TIMESTAMP_CLIP) * fu_bits[cls]
            ace[StructureKind.FUNCTIONAL_UNITS] += fu_res
            occupancy[StructureKind.FUNCTIONAL_UNITS] += fu_res
            iq_res = min(max(t_issue - t_fetch - 2.0, 0.0), TIMESTAMP_CLIP)
            ace[StructureKind.ISSUE_QUEUE] += iq_res * iq_bits
            occupancy[StructureKind.ISSUE_QUEUE] += iq_res * iq_bits
        if cls == InstructionClass.STORE:
            sq_res = _STORE_DRAIN * sq_bits
            ace[StructureKind.STORE_QUEUE] += sq_res
            occupancy[StructureKind.STORE_QUEUE] += sq_res

    elapsed = budget if committed < n else max(end_time, 1.0)
    arch = (
        core.register_file.arch_bits * _ARCH_REG_LIVE_FRACTION * elapsed
    )
    ace[StructureKind.REGISTER_FILE] += arch
    occupancy[StructureKind.REGISTER_FILE] += arch
    return QuantumResult(
        instructions=committed,
        cycles=elapsed,
        ace_bit_cycles=ace,
        occupancy_bit_cycles=occupancy,
        memory_accesses=float(hierarchy.dram_accesses - dram_start),
        l3_accesses=float(hierarchy.l3_accesses - l3_start),
        branch_mispredictions=float(mispredicted[:committed].sum()),
    )
