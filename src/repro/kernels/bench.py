"""Performance micro-benchmarks for the simulation hot path.

Times the layers the `repro.kernels` work optimizes -- trace
generation (and the trace cache), the batched cache-hierarchy walk,
the OoO and in-order window kernels (against their straight-line
references), trace-driven runs of one mix under the three schedulers
and a sweep on 1, 2 and 4 engine workers -- and emits a
machine-readable report (``BENCH_PERF.json``) so the performance
trajectory is tracked PR-over-PR.  End-to-end campaign time is
measured by ``benchmarks/e2e`` (``paper_fig06``), not here.  Run via
``repro bench`` or ``python benchmarks/bench_perf.py``.

The regression gate is the *in-process* kernel-vs-reference speedup
(``--min-ooo-speedup``), which is machine-independent; absolute
instructions/second are reported for trend tracking alongside the
recorded pre-kernel baseline.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

#: Throughputs of the pre-kernel implementations, measured on the
#: machine that developed the kernel layer (scalar cache walks,
#: per-instruction enum construction; commit eeee08a).  Kept static so
#: the kernel-vs-pre-PR speedup in the report has a fixed denominator.
PRE_PR_BASELINE = {
    "ooo_window_insn_per_s": 163_000,
    "inorder_window_insn_per_s": 95_000,
    "note": (
        "pre-kernel simulate_window/run_cycles throughput at 200k "
        "instructions (soplex, seed 0), measured at commit eeee08a"
    ),
}

#: Benchmark/trace used by the micro-benchmarks.
BENCH_WORKLOAD = "soplex"


def usable_cpus() -> int:
    """CPUs this process may run on; the shard rows scale with it."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _best(fn, repeats: int) -> tuple[float, object]:
    """Best-of-N wall-clock of ``fn()`` (returns last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_bench(quick: bool = False) -> dict:
    """Run the perf-bench suite; returns the report dictionary."""
    from repro.config import MemoryConfig, big_core_config, small_core_config
    from repro.cores.base import ISOLATED
    from repro.cores.inorder import InOrderCoreModel
    from repro.cores.ooo import OutOfOrderCoreModel
    from repro.cores.tracebase import TraceApplication
    from repro.kernels.reference import (
        reference_inorder_run,
        reference_ooo_window,
    )
    from repro.kernels.trace_cache import (
        cache_stats,
        cached_generate_trace,
        clear_cache,
    )
    from repro.isa.instruction import InstructionClass
    from repro.memory.hierarchy import CacheHierarchy
    from repro.workloads import benchmark
    from repro.workloads.generator import generate_trace

    instructions = 60_000 if quick else 200_000
    repeats = 1 if quick else 3
    profile = benchmark(BENCH_WORKLOAD)
    results: dict = {}

    # -- trace generation and the trace cache --
    gen_s, trace = _best(
        lambda: generate_trace(profile, instructions, seed=0), repeats
    )
    results["trace_generation"] = {
        "instructions": instructions,
        "wall_s": gen_s,
        "insn_per_s": instructions / gen_s,
    }
    clear_cache()
    cached_generate_trace(profile, instructions, seed=0)  # warm
    hit_s, _ = _best(
        lambda: cached_generate_trace(profile, instructions, seed=0),
        max(repeats, 3),
    )
    results["trace_cache_hit"] = {
        "wall_s": hit_s,
        "speedup_vs_generate": gen_s / max(hit_s, 1e-9),
        "stats": cache_stats(),
    }
    clear_cache()

    # -- batched hierarchy walk vs scalar --
    # The trace's loads and stores in program order, through a cold
    # hierarchy: the walk that warms a trace-driven reference run.
    app = TraceApplication(trace)
    memory_ops = (trace.classes == InstructionClass.LOAD) | (
        trace.classes == InstructionClass.STORE
    )
    addresses = trace.addresses[memory_ops]
    frequency_ghz = big_core_config().frequency_ghz

    def scalar_cache():
        hierarchy = CacheHierarchy(MemoryConfig(), frequency_ghz)
        access = hierarchy.access_data
        for a in addresses.tolist():
            access(a)
        return hierarchy

    def batch_cache():
        hierarchy = CacheHierarchy(MemoryConfig(), frequency_ghz)
        hierarchy.access_data_batch(addresses)
        return hierarchy

    scalar_s, _ = _best(scalar_cache, repeats)
    batch_s, _ = _best(batch_cache, repeats)
    results["cache_access"] = {
        "accesses": int(len(addresses)),
        "scalar_wall_s": scalar_s,
        "batch_wall_s": batch_s,
        "scalar_accesses_per_s": len(addresses) / scalar_s,
        "batch_accesses_per_s": len(addresses) / batch_s,
        "batch_speedup": scalar_s / batch_s,
    }

    # -- OoO window: kernel vs straight-line reference --
    budget = float(instructions)

    def ooo_kernel():
        model = OutOfOrderCoreModel(big_core_config(), MemoryConfig())
        return model.simulate_window(app, 0, budget, ISOLATED)

    def ooo_reference():
        model = OutOfOrderCoreModel(big_core_config(), MemoryConfig())
        return reference_ooo_window(model, app, 0, budget, ISOLATED)

    kernel_s, timing = _best(ooo_kernel, repeats)
    reference_s, _ = _best(ooo_reference, repeats)
    ooo_insn_per_s = timing.committed / kernel_s
    results["ooo_window"] = {
        "committed": timing.committed,
        "kernel_wall_s": kernel_s,
        "reference_wall_s": reference_s,
        "kernel_insn_per_s": ooo_insn_per_s,
        "reference_insn_per_s": timing.committed / reference_s,
        "kernel_vs_reference_speedup": reference_s / kernel_s,
        "kernel_vs_pre_pr_speedup": (
            ooo_insn_per_s / PRE_PR_BASELINE["ooo_window_insn_per_s"]
        ),
    }

    # -- observability overhead on both kernel paths --
    # "plain" calls the kernel function directly (no wrappers at all);
    # "disabled" goes through the model method, whose span()/ACTIVE
    # checks AND the dormant flight-recorder + trace-context hooks are
    # compiled in but off; "enabled" runs the same call with a live
    # tracer, metrics registry, and armed flight recorder.  The gate
    # (--max-disabled-overhead) bounds the cost of shipping the hooks
    # on the OoO and in-order paths alike.
    from repro.kernels.window import inorder_run_cycles, ooo_simulate_window
    from repro.obs import flight as obs_flight
    from repro.obs import metrics as obs_metrics
    from repro.obs import tracing as obs_tracing

    overhead_repeats = max(repeats, 5)

    def obs_plain():
        model = OutOfOrderCoreModel(big_core_config(), MemoryConfig())
        return ooo_simulate_window(model, app, 0, budget, ISOLATED)

    def obs_disabled():
        model = OutOfOrderCoreModel(big_core_config(), MemoryConfig())
        return model.simulate_window(app, 0, budget, ISOLATED)

    def obs_enabled():
        model = OutOfOrderCoreModel(big_core_config(), MemoryConfig())
        with obs_metrics.collecting(), obs_tracing.collecting(), \
                obs_flight.recording():
            return model.simulate_window(app, 0, budget, ISOLATED)

    inorder_overhead_budget = 2.0 * budget

    def inorder_obs_plain():
        model = InOrderCoreModel(small_core_config(), MemoryConfig())
        return inorder_run_cycles(
            model, app, 0, inorder_overhead_budget, ISOLATED
        )

    def inorder_obs_disabled():
        model = InOrderCoreModel(small_core_config(), MemoryConfig())
        return model.run_cycles(app, 0, inorder_overhead_budget, ISOLATED)

    def inorder_obs_enabled():
        model = InOrderCoreModel(small_core_config(), MemoryConfig())
        with obs_metrics.collecting(), obs_tracing.collecting(), \
                obs_flight.recording():
            return model.run_cycles(app, 0, inorder_overhead_budget, ISOLATED)

    plain_s, _ = _best(obs_plain, overhead_repeats)
    disabled_s, _ = _best(obs_disabled, overhead_repeats)
    enabled_s, _ = _best(obs_enabled, overhead_repeats)
    in_plain_s, _ = _best(inorder_obs_plain, overhead_repeats)
    in_disabled_s, _ = _best(inorder_obs_disabled, overhead_repeats)
    in_enabled_s, _ = _best(inorder_obs_enabled, overhead_repeats)
    results["span_overhead"] = {
        "committed": timing.committed,
        "repeats": overhead_repeats,
        "plain_wall_s": plain_s,
        "disabled_wall_s": disabled_s,
        "enabled_wall_s": enabled_s,
        "disabled_overhead": disabled_s / plain_s - 1.0,
        "enabled_overhead": enabled_s / plain_s - 1.0,
        "inorder_plain_wall_s": in_plain_s,
        "inorder_disabled_wall_s": in_disabled_s,
        "inorder_enabled_wall_s": in_enabled_s,
        "inorder_disabled_overhead": in_disabled_s / in_plain_s - 1.0,
        "inorder_enabled_overhead": in_enabled_s / in_plain_s - 1.0,
    }

    # -- in-order window: kernel vs straight-line reference --
    inorder_budget = 2.0 * budget

    def inorder_kernel():
        model = InOrderCoreModel(small_core_config(), MemoryConfig())
        return model.run_cycles(app, 0, inorder_budget, ISOLATED)

    def inorder_reference():
        model = InOrderCoreModel(small_core_config(), MemoryConfig())
        return reference_inorder_run(model, app, 0, inorder_budget, ISOLATED)

    kernel_s, quantum = _best(inorder_kernel, repeats)
    reference_s, _ = _best(inorder_reference, repeats)
    inorder_insn_per_s = quantum.instructions / kernel_s
    results["inorder_window"] = {
        "committed": quantum.instructions,
        "kernel_wall_s": kernel_s,
        "reference_wall_s": reference_s,
        "kernel_insn_per_s": inorder_insn_per_s,
        "reference_insn_per_s": quantum.instructions / reference_s,
        "kernel_vs_reference_speedup": reference_s / kernel_s,
        "kernel_vs_pre_pr_speedup": (
            inorder_insn_per_s
            / PRE_PR_BASELINE["inorder_window_insn_per_s"]
        ),
    }

    # -- trace-driven runs at representative scale --
    # One mix under the three schedulers, as `benchmarks/e2e`'s
    # trace_validate runs it, from an empty reference memo and trace
    # cache: trace generation, the warm-up walks and reference passes,
    # and every window the multicore runs execute.  No gate.
    from repro.config import STANDARD_MACHINES
    from repro.sim import tracedriven
    from repro.workloads.mixes import generate_workloads

    trace_machine = STANDARD_MACHINES["2B2S"]()
    trace_mix = generate_workloads(trace_machine.num_cores)[0]
    trace_schedulers = ("random", "performance", "reliability")

    def trace_workload():
        clear_cache()
        tracedriven._reference_memo.clear()
        return [
            tracedriven.run_trace_workload(
                trace_machine, trace_mix, name, instructions=instructions
            )
            for name in trace_schedulers
        ]

    trace_s, trace_runs = _best(trace_workload, repeats)
    trace_quanta = sum(run.quanta for run in trace_runs)
    results["trace_workload"] = {
        "machine": trace_machine.name,
        "mix": list(trace_mix.benchmarks),
        "schedulers": list(trace_schedulers),
        "instructions": instructions,
        "wall_s": trace_s,
        "quanta": trace_quanta,
        "us_per_quantum": 1e6 * trace_s / trace_quanta,
    }

    # -- sweep on 1/2/4 engine workers (the "shard" row) --
    # One worker runs in-process, as --jobs 1 does; 2 and 4 deal the
    # specs to forked engine workers, so they pay the worker start
    # (a few ms per fork) that shards_1 does not.  The regression gate
    # (--min-shard-speedup) applies at 2 workers; 4 is reported for the
    # scaling curve.  Sized so the serial compute (0.9-1.4 s quick)
    # dominates worker start: on a >= 2-core host the model predicts
    # ~1.9x at 2 workers, leaving headroom over the 1.6x CI floor.  On
    # a single-core host the speedup honestly reads <= 1.0 (workers
    # time-slice one CPU) -- apply the gate only where cores exist.
    from repro.runtime.engine import ExecutionEngine
    from repro.sim.experiment import sweep_specs

    shard_machine = STANDARD_MACHINES["1B1S"]()
    shard_instructions = 500_000_000 if quick else 1_000_000_000
    shard_mixes = generate_workloads(shard_machine.num_cores)
    shard_specs, shard_labels = sweep_specs(
        shard_machine, shard_mixes, instructions=shard_instructions
    )
    results["shard"] = {
        "machine": shard_machine.name,
        "runs": len(shard_specs),
        "instructions_per_run": shard_instructions,
    }
    shard_base_runs_per_s = None
    for count in (1, 2, 4):
        t0 = time.perf_counter()
        ExecutionEngine(jobs=count).run_many(
            shard_specs, machines=shard_machine, labels=shard_labels
        )
        wall = time.perf_counter() - t0
        runs_per_s = len(shard_specs) / wall
        if shard_base_runs_per_s is None:
            shard_base_runs_per_s = runs_per_s
        results["shard"][f"shards_{count}"] = {
            "runs": len(shard_specs),
            "wall_s": wall,
            "runs_per_s": runs_per_s,
            "speedup_vs_1": runs_per_s / shard_base_runs_per_s,
        }

    return {
        "schema": 1,
        "workload": BENCH_WORKLOAD,
        "quick": quick,
        "python": platform.python_version(),
        "usable_cpus": usable_cpus(),
        "pre_pr_baseline": PRE_PR_BASELINE,
        "results": results,
    }


def format_report(report: dict) -> str:
    """Human-readable summary of a bench report."""
    r = report["results"]
    lines = [
        f"perf bench ({'quick' if report['quick'] else 'full'}, "
        f"{report['workload']}, python {report['python']}, "
        f"{report.get('usable_cpus', '?')} usable CPUs)",
        (
            f"  trace generation   "
            f"{r['trace_generation']['insn_per_s'] / 1e3:9.0f}k insn/s"
        ),
        (
            f"  trace cache hit    "
            f"{r['trace_cache_hit']['speedup_vs_generate']:9.0f}x "
            "vs generation"
        ),
        (
            f"  cache access batch "
            f"{r['cache_access']['batch_accesses_per_s'] / 1e6:9.2f}M/s "
            f"({r['cache_access']['batch_speedup']:.2f}x scalar)"
        ),
    ]
    for key, label in (
        ("ooo_window", "OoO window    "),
        ("inorder_window", "in-order window"),
    ):
        lines.append(
            f"  {label}    "
            f"{r[key]['kernel_insn_per_s'] / 1e3:7.0f}k insn/s "
            f"({r[key]['kernel_vs_reference_speedup']:.2f}x reference, "
            f"{r[key]['kernel_vs_pre_pr_speedup']:.2f}x pre-kernel "
            "baseline)"
        )
    lines.append(
        f"  obs overhead       "
        f"{100 * r['span_overhead']['disabled_overhead']:+9.2f}% disabled, "
        f"{100 * r['span_overhead']['enabled_overhead']:+.2f}% enabled (OoO)"
    )
    if "inorder_disabled_overhead" in r["span_overhead"]:
        lines.append(
            f"                     "
            f"{100 * r['span_overhead']['inorder_disabled_overhead']:+9.2f}"
            f"% disabled, "
            f"{100 * r['span_overhead']['inorder_enabled_overhead']:+.2f}"
            f"% enabled (in-order)"
        )
    if "trace_workload" in r:
        t = r["trace_workload"]
        lines.append(
            f"  trace workload     "
            f"{t['us_per_quantum']:9.0f} us/quantum "
            f"({t['machine']}, {len(t['schedulers'])} schedulers, "
            f"{t['instructions'] // 1000}k instructions, "
            f"{t['wall_s']:.2f} s)"
        )
    if "shard" in r:
        s = r["shard"]
        lines.append(
            f"  sharded campaign   "
            f"{s['shards_2']['runs_per_s']:9.2f} runs/s @2 shards "
            f"({s['shards_2']['speedup_vs_1']:.2f}x 1 shard; "
            f"4: {s['shards_4']['speedup_vs_1']:.2f}x)"
        )
    return "\n".join(lines)


def write_report(report: dict, path: str | Path) -> Path:
    """Write a bench report as pretty-printed JSON."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
