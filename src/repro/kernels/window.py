"""Window kernels for the trace-driven core models.

The pre-kernel implementations (kept verbatim in
:mod:`repro.kernels.reference`) spent most of their time on
per-instruction Python overhead: one :class:`InstructionClass` enum
construction, several numpy scalar reads, and one scalar cache walk
per load/store.  The kernels here run ``simulate_window``/``run_cycles``
as one pass in program order:

1. each **chunk's static columns** -- kernel kind code, static
   latency, I-cache penalty, both dependency distances, the
   misprediction flag and the data address -- are converted to plain
   Python lists in vectorized numpy operations.  Chunks start at
   :data:`_FIRST_CHUNK` instructions and double up to :data:`_CHUNK`,
   so a short budget does not convert far past its break; then
2. a **minimal max-plus recurrence loop** over local-variable-bound
   floats -- no enum construction, no dict lookups, no numpy scalar
   round-trips -- sends each load and store address to the
   hierarchy's :meth:`~repro.memory.hierarchy.CacheHierarchy.data_walk`
   at the point where the recurrence reaches it.

The kernels read the application's trace itself, from ``start mod
length``, and build no per-window :class:`~repro.isa.trace.Trace`.
Each timing list starts with ``-inf`` entries, as many as the deepest
window constraint (width, ROB, issue queue, load/store queue, latch
slots) and the farthest dependence reaches, and the recurrence reads
its constraints back from the end of the lists.  An instruction
before the window therefore has a ``-inf`` timing, which never binds:
exactly the references' "no constraint before the first
instructions" and :meth:`~repro.isa.trace.Trace.slice`'s clamp of
a dependence reaching before the window to "ready".

Results are identical to the reference implementations: the
recurrence performs the same float operations in the same order, and
the caches see the same accesses in the same order -- those of the
committed instructions plus the break instruction's, the first
*uncommitted* one (see docs/performance.md and DESIGN.md), and none
after it.  The differential fuzzer cross-checks kernel vs reference
on every ``repro check`` run.
"""

from __future__ import annotations

import numpy as np

from repro.config.structures import StructureKind
from repro.cores.base import MemoryEnvironment, QuantumResult
from repro.isa.instruction import (
    NUM_CLASSES,
    InstructionClass,
    fu_bits_table,
    latency_table,
)
from repro.obs import metrics as obs_metrics

#: Instructions a window holds beyond ``budget x width``: an additive
#: slack, so a window never runs out before its budget breaks.
_WINDOW_SLACK = 1024

#: Cycles a committed store occupies the in-order store queue.
_STORE_DRAIN = 3.0

#: Instructions in a window's first chunk.  Each later chunk doubles,
#: up to :data:`_CHUNK`, so the instructions whose columns are
#: converted stay within ``2 x committed + _FIRST_CHUNK`` however the
#: window's length compares with its budget (docs/performance.md).
_FIRST_CHUNK = 256

#: Largest chunk, in instructions.  Bounds the transient memory of the
#: per-chunk column lists and, once chunks reach it, the conversion
#: wasted past the budget break.
_CHUNK = 4096

#: Class -> kernel kind code: 0 plain, 1 load, 2 store, 3 integer
#: divide, 4 floating-point divide (the classes needing queue or
#: unpipelined-divider handling in the recurrence).
_KIND = np.zeros(NUM_CLASSES, dtype=np.int8)
_KIND[InstructionClass.LOAD] = 1
_KIND[InstructionClass.STORE] = 2
_KIND[InstructionClass.INT_DIV] = 3
_KIND[InstructionClass.FP_DIV] = 4

#: Static execution latency per class, as float64 (exactly the
#: ``float(latency_table()[cls])`` values of the reference).
_STATIC_LATENCY = latency_table().astype(np.float64)

#: The timing of an instruction before the window: it never binds.
_BEFORE = float("-inf")


def _chunk_bounds(n):
    """``(start, end)`` of each chunk of an ``n``-instruction window:
    :data:`_FIRST_CHUNK` instructions, doubling up to :data:`_CHUNK`."""
    c0, size = 0, _FIRST_CHUNK
    while c0 < n:
        c1 = min(c0 + size, n)
        yield c0, c1
        c0, size = c1, min(2 * size, _CHUNK)


def _window(app, start_instruction, budget, width):
    """``(trace, begin, n)``: the window of a ``budget``-cycle run is
    the ``n`` instructions of ``app.trace`` from ``begin`` -- those of
    :meth:`~repro.cores.tracebase.TraceApplication.window`, unsliced."""
    trace = app.trace
    begin = start_instruction % len(trace)
    length = int(budget * width) + _WINDOW_SLACK
    return trace, begin, min(length, len(trace) - begin)


def _reach(trace, begin, n):
    """The largest dependence distance of the ``n`` instructions from
    ``begin``: no dependence of the window reads further before it."""
    if n <= 0:
        return 0
    end = begin + n
    return int(max(trace.dep1[begin:end].max(), trace.dep2[begin:end].max()))


def _chunk_columns(trace, c0, c1, icache_penalty):
    """Static kernel inputs of ``trace``'s instructions ``[c0, c1)``,
    per instruction, as plain Python values: kind code, static
    latency, I-cache penalty, both dependency distances, negated (0
    still means none, and a negated distance indexes the producer from
    the end of a timing list), the misprediction flag and the
    address."""
    classes = trace.classes[c0:c1]
    return zip(
        _KIND[classes].tolist(),
        _STATIC_LATENCY[classes].tolist(),
        np.where(trace.icache_miss[c0:c1], icache_penalty, 0.0).tolist(),
        np.negative(trace.dep1[c0:c1]).tolist(),
        np.negative(trace.dep2[c0:c1]).tolist(),
        trace.mispredicted[c0:c1].tolist(),
        trace.addresses[c0:c1].tolist(),
    )


def _latencies(classes, load_latencies):
    """Per-instruction latencies of a committed prefix: static ones,
    with each load's walked latency in place.  ``load_latencies`` may
    hold one more, the break instruction's."""
    latency = _STATIC_LATENCY[classes]
    loads = np.flatnonzero(classes == InstructionClass.LOAD)
    latency[loads] = load_latencies[:loads.size]
    return latency


def ooo_simulate_window(model, app, start_instruction, cycles, env):
    """Kernelized out-of-order window timing computation.

    Produces a :class:`~repro.cores.ooo.WindowTiming` element-wise
    identical to :func:`repro.kernels.reference.reference_ooo_window`
    and leaves the cache hierarchy in the identical state.
    """
    from repro.cores.ooo import WindowTiming

    core = model.core
    assert core.rob is not None and core.load_queue is not None
    budget = float(cycles)
    width = core.width
    trace, begin, n = _window(app, start_instruction, budget, width)
    hierarchy = model.hierarchy_for(app)
    dram_extra = (
        model.dram_latency_cycles(env) - hierarchy.dram_latency_cycles
    )
    lat1, lat2, lat3, lat4 = hierarchy.data_latencies
    load_lat = (lat1, lat2, lat3, lat4 + dram_extra)
    rob_size = core.rob.entries
    iq_size = core.issue_queue.entries
    lq_size = core.load_queue.entries
    sq_size = core.store_queue.entries
    depth = core.frontend_depth
    icache_penalty = model.memory.l2.latency_cycles

    # Timings of the instructions before the window: -inf never binds.
    pad = max(width, rob_size, iq_size, _reach(trace, begin, n))
    dispatch_l = [_BEFORE] * pad
    issue_l = [_BEFORE] * pad
    finish_l = [_BEFORE] * pad
    commit_l = [_BEFORE] * pad
    load_commits = [_BEFORE] * lq_size
    store_commits = [_BEFORE] * sq_size
    # Each list holds the timings of the instructions before the
    # current one, so ``timings[-d]`` is that of the instruction ``d``
    # before it.  The offsets are negated once, not per instruction.
    back_width, back_rob, back_iq = -width, -rob_size, -iq_size
    back_lq, back_sq = -lq_size, -sq_size
    load_lats: list[float] = []
    dispatch_append = dispatch_l.append
    issue_append = issue_l.append
    finish_append = finish_l.append
    commit_append = commit_l.append
    load_append = load_commits.append
    store_append = store_commits.append
    load_lat_append = load_lats.append
    walk = hierarchy.data_walk()
    access = walk.send
    access(None)

    fetch_ready = 0.0
    int_div_free = 0.0
    fp_div_free = 0.0
    prev_commit = 0.0
    broke = False
    try:
        for c0, c1 in _chunk_bounds(n):
            for k, lat, ic, d1, d2, mp, addr in _chunk_columns(
                trace, begin + c0, begin + c1, icache_penalty
            ):
                if ic:
                    fetch_ready += ic
                td = fetch_ready
                x = dispatch_l[back_width] + 1.0
                if x > td:
                    td = x
                x = commit_l[back_rob]
                if x > td:
                    td = x
                x = issue_l[back_iq]
                if x > td:
                    td = x
                if k:
                    if k == 1:
                        x = load_commits[back_lq]
                        if x > td:
                            td = x
                        lat = load_lat[access(addr)]
                        load_lat_append(lat)
                    elif k == 2:
                        x = store_commits[back_sq]
                        if x > td:
                            td = x
                        # Stores write back at commit: the access is for
                        # the cache state, the pipeline sees unit latency.
                        access(addr)
                dispatch_append(td)
                ready = td + 1.0
                if d1:
                    x = finish_l[d1]
                    if x > ready:
                        ready = x
                if d2:
                    x = finish_l[d2]
                    if x > ready:
                        ready = x
                if k > 2:
                    if k == 3:
                        if int_div_free > ready:
                            ready = int_div_free
                        fin = ready + lat
                        int_div_free = fin
                    else:
                        if fp_div_free > ready:
                            ready = fp_div_free
                        fin = ready + lat
                        fp_div_free = fin
                else:
                    fin = ready + lat
                issue_append(ready)
                finish_append(fin)
                if mp:
                    x = fin + depth
                    if x > fetch_ready:
                        fetch_ready = x
                tc = fin + 1.0
                if prev_commit > tc:
                    tc = prev_commit
                x = commit_l[back_width] + 1.0
                if x > tc:
                    tc = x
                commit_append(tc)
                prev_commit = tc
                if k:
                    if k == 1:
                        load_append(tc)
                    elif k == 2:
                        store_append(tc)
                if tc > budget:
                    broke = True
                    break
            if broke:
                break
    finally:
        walk.close()

    # The break instruction's timings are the lists' last entries.
    stop = len(commit_l) - 1 if broke else len(commit_l)
    committed = stop - pad
    elapsed = budget if committed < n else max(commit_l[-1], 1.0)
    classes = trace.classes[begin:begin + committed]
    reg = obs_metrics.ACTIVE
    if reg is not None:
        reg.counter("kernel.windows", kernel="ooo").inc()
        reg.counter("kernel.instructions", kernel="ooo").inc(committed)
    return WindowTiming(
        classes=classes.copy(),
        dispatch=np.array(dispatch_l[pad:stop], dtype=np.float64),
        issue=np.array(issue_l[pad:stop], dtype=np.float64),
        finish=np.array(finish_l[pad:stop], dtype=np.float64),
        commit=np.array(commit_l[pad:stop], dtype=np.float64),
        latency=_latencies(classes, load_lats),
        mispredicted=trace.mispredicted[begin:begin + committed].copy(),
        committed=committed,
        elapsed_cycles=elapsed,
    )


def inorder_run_cycles(model, app, start_instruction, cycles, env):
    """Kernelized in-order scoreboard execution of one cycle budget.

    Matches :func:`repro.kernels.reference.reference_inorder_run` in
    timing, statistics and cache state; the per-structure ACE
    accounting is computed vectorized over the committed prefix, so
    its sums may differ from the reference's sequential accumulation
    at floating-point rounding level (relative ~1e-15).
    """
    from repro.cores.inorder import TIMESTAMP_CLIP

    if cycles <= 0:
        return QuantumResult.zero()
    core = model.core
    assert core.pipeline_latches is not None
    budget = float(cycles)
    width = core.width
    trace, begin, n = _window(app, start_instruction, budget, width)
    if n == 0:
        return QuantumResult(instructions=0, cycles=budget)
    hierarchy = model.hierarchy_for(app)
    dram_extra = (
        model.dram_latency_cycles(env) - hierarchy.dram_latency_cycles
    )
    lat1, lat2, lat3, lat4 = hierarchy.data_latencies
    load_lat = (lat1, lat2, lat3, lat4 + dram_extra)
    l3_start = hierarchy.l3_accesses
    dram_start = hierarchy.dram_accesses

    depth = core.frontend_depth
    latch_slots = core.pipeline_latches.entries
    icache_penalty = model.memory.l2.latency_cycles

    # Timings of the instructions before the window: -inf never binds.
    pad = max(width, latch_slots, _reach(trace, begin, n))
    fetch_l = [_BEFORE] * pad
    issue_l = [_BEFORE] * pad
    finish_l = [_BEFORE] * pad
    wb_l = [_BEFORE] * pad
    # As in the OoO kernel, ``timings[-d]`` is the timing of the
    # instruction ``d`` before the current one.
    back_width, back_latch = -width, -latch_slots
    load_lats: list[float] = []
    fetch_append = fetch_l.append
    issue_append = issue_l.append
    finish_append = finish_l.append
    wb_append = wb_l.append
    load_lat_append = load_lats.append
    walk = hierarchy.data_walk()
    access = walk.send
    access(None)

    fetch_ready = 0.0
    int_div_free = 0.0
    fp_div_free = 0.0
    prev_issue = 0.0
    broke = False
    try:
        for c0, c1 in _chunk_bounds(n):
            for k, lat, ic, d1, d2, mp, addr in _chunk_columns(
                trace, begin + c0, begin + c1, icache_penalty
            ):
                if ic:
                    fetch_ready += ic
                # Fetch: at most `width` per cycle, and only when a
                # pipeline-latch slot is free (slots are held from fetch
                # to writeback, so stalls back-pressure the front end).
                tf = fetch_ready
                x = fetch_l[back_width] + 1.0
                if x > tf:
                    tf = x
                x = wb_l[back_latch]
                if x > tf:
                    tf = x
                fetch_append(tf)
                # In-order issue after traversing the front-end stages:
                # after the previous instruction, at most `width` per
                # cycle, once operands are ready (stall-on-use).
                ti = tf + depth - 2.0
                if prev_issue > ti:
                    ti = prev_issue
                x = issue_l[back_width] + 1.0
                if x > ti:
                    ti = x
                if d1:
                    x = finish_l[d1]
                    if x > ti:
                        ti = x
                if d2:
                    x = finish_l[d2]
                    if x > ti:
                        ti = x
                if k:
                    if k == 1:
                        lat = load_lat[access(addr)]
                        load_lat_append(lat)
                        fin = ti + lat
                    elif k == 2:
                        access(addr)
                        fin = ti + lat
                    elif k == 3:
                        if int_div_free > ti:
                            ti = int_div_free
                        fin = ti + lat
                        int_div_free = fin
                    else:
                        if fp_div_free > ti:
                            ti = fp_div_free
                        fin = ti + lat
                        fp_div_free = fin
                else:
                    fin = ti + lat
                issue_append(ti)
                finish_append(fin)
                prev_issue = ti
                if mp:
                    x = fin + depth
                    if x > fetch_ready:
                        fetch_ready = x
                w = fin + 1.0
                wb_append(w)
                if w > budget:
                    broke = True
                    break
            if broke:
                break
    finally:
        walk.close()

    # The break instruction's timings are the lists' last entries.
    stop = len(wb_l) - 1 if broke else len(wb_l)
    committed = stop - pad
    elapsed = budget if committed < n else max(wb_l[-1], 1.0)
    classes = trace.classes[begin:begin + committed]
    ace, occupancy = _inorder_account(
        model, classes, _latencies(classes, load_lats),
        fetch_l[pad:stop], issue_l[pad:stop], wb_l[pad:stop], elapsed,
        TIMESTAMP_CLIP,
    )
    reg = obs_metrics.ACTIVE
    if reg is not None:
        reg.counter("kernel.windows", kernel="inorder").inc()
        reg.counter("kernel.instructions", kernel="inorder").inc(committed)
    return QuantumResult(
        instructions=committed,
        cycles=elapsed,
        ace_bit_cycles=ace,
        occupancy_bit_cycles=occupancy,
        memory_accesses=float(hierarchy.dram_accesses - dram_start),
        l3_accesses=float(hierarchy.l3_accesses - l3_start),
        branch_mispredictions=float(
            np.count_nonzero(trace.mispredicted[begin:begin + committed])
        ),
    )


def _inorder_account(
    model, classes, latency, fetch_l, issue_l, wb_l, elapsed, timestamp_clip,
):
    """Vectorized in-order ACE/occupancy accounting (Section 4.2) of
    committed instructions: their ``classes``, latencies and fetch,
    issue and writeback timings."""
    from repro.cores.inorder import _ARCH_REG_LIVE_FRACTION

    core = model.core
    latch_bits = core.pipeline_latches.bits_per_entry
    iq_bits = core.issue_queue.bits_per_entry
    sq_bits = core.store_queue.bits_per_entry
    fetch = np.array(fetch_l, dtype=np.float64)
    issue = np.array(issue_l, dtype=np.float64)
    wb = np.array(wb_l, dtype=np.float64)

    non_nop = classes != InstructionClass.NOP
    residency = np.minimum(wb - fetch, timestamp_clip)
    fu_res = np.minimum(latency, timestamp_clip) * fu_bits_table()[classes]
    iq_res = np.minimum(
        np.maximum(issue - fetch - 2.0, 0.0), timestamp_clip
    )
    stores = int(np.count_nonzero(classes == InstructionClass.STORE))

    latch_occ = float(residency.sum()) * latch_bits
    latch_ace = float(residency[non_nop].sum()) * latch_bits
    fu_total = float(fu_res[non_nop].sum())
    iq_total = float(iq_res[non_nop].sum()) * iq_bits
    sq_total = stores * (_STORE_DRAIN * sq_bits)
    arch = (
        core.register_file.arch_bits * _ARCH_REG_LIVE_FRACTION * elapsed
    )
    ace = {
        StructureKind.PIPELINE_LATCHES: latch_ace,
        StructureKind.ISSUE_QUEUE: iq_total,
        StructureKind.STORE_QUEUE: sq_total,
        StructureKind.REGISTER_FILE: arch,
        StructureKind.FUNCTIONAL_UNITS: fu_total,
    }
    occupancy = {
        StructureKind.PIPELINE_LATCHES: latch_occ,
        StructureKind.ISSUE_QUEUE: iq_total,
        StructureKind.STORE_QUEUE: sq_total,
        StructureKind.REGISTER_FILE: arch,
        StructureKind.FUNCTIONAL_UNITS: fu_total,
    }
    return ace, occupancy
