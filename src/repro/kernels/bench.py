"""Performance micro-benchmarks for the simulation hot path.

Times the layers the `repro.kernels` work optimizes -- trace
generation (and the trace cache), batched cache access, the OoO and
in-order window kernels (against their straight-line references), the
cross-run batched engine (:mod:`repro.batch`) at batch sizes
1/64/1024 against the scalar engine (``--min-batch-speedup`` gates the
1024 point) and sharded campaigns -- and emits a machine-readable
report (``BENCH_PERF.json``) so the performance trajectory is tracked
PR-over-PR.  End-to-end campaign time is measured by
``benchmarks/e2e`` (``paper_fig06``), not here.  Run via ``repro bench`` or
``python benchmarks/bench_perf.py``.

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
    from repro.memory.cache import SetAssociativeCache
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

    # -- batched cache access vs scalar --
    app = TraceApplication(trace)
    addresses = trace.addresses[trace.addresses != 0]
    l1_config = MemoryConfig().l1d

    def scalar_cache():
        cache = SetAssociativeCache(l1_config, "bench")
        access = cache.access
        for a in addresses.tolist():
            access(a)
        return cache

    def batch_cache():
        cache = SetAssociativeCache(l1_config, "bench")
        cache.access_batch(addresses)
        return cache

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

    # -- cross-run batched sweep vs the scalar engine --
    # Throughput of repro.batch at batch sizes 1/64/1024 against a
    # scalar-engine baseline over identical requests.  Batch size 1 is
    # expected to be *slower* (array setup dominates one run) and is
    # reported for honesty; the regression gate (--min-batch-speedup)
    # applies at batch size 1024, where the cross-run amortization
    # pays off.
    from repro.ace.counters import AceCounterMode
    from repro.batch.sweep import BatchRunRequest, run_workload_batch
    from repro.config import STANDARD_MACHINES
    from repro.sim.multicore import MulticoreSimulation
    from repro.sim.experiment import make_scheduler
    from repro.workloads.mixes import generate_workloads

    batch_machine = STANDARD_MACHINES["2B2S"]()
    batch_instructions = 300_000 if quick else 1_000_000
    batch_mixes = generate_workloads(batch_machine.num_cores)
    batch_schedulers = ("random", "performance", "reliability")

    def batch_request(i: int) -> BatchRunRequest:
        mix = batch_mixes[i % len(batch_mixes)]
        return BatchRunRequest(
            machine=batch_machine,
            benchmarks=mix.benchmarks,
            scheduler=batch_schedulers[i % len(batch_schedulers)],
            instructions=batch_instructions,
            seed=i,
            counter_mode=AceCounterMode.FULL,
        )

    def scalar_run(req: BatchRunRequest):
        profiles = [
            benchmark(name).scaled(req.instructions)
            for name in req.benchmarks
        ]
        scheduler = make_scheduler(
            req.scheduler, req.machine, len(profiles), req.seed
        )
        return MulticoreSimulation(
            req.machine, profiles, scheduler, counter_mode=req.counter_mode
        ).run()

    scalar_count = 4 if quick else 8
    t0 = time.perf_counter()
    for i in range(scalar_count):
        scalar_run(batch_request(i))
    scalar_s = time.perf_counter() - t0
    scalar_runs_per_s = scalar_count / scalar_s
    results["batch"] = {
        "machine": batch_machine.name,
        "instructions_per_run": batch_instructions,
        "scalar": {
            "runs": scalar_count,
            "wall_s": scalar_s,
            "runs_per_s": scalar_runs_per_s,
        },
    }
    for size in (1, 64, 1024):
        requests = [batch_request(i) for i in range(size)]
        t0 = time.perf_counter()
        run_workload_batch(requests)
        wall = time.perf_counter() - t0
        results["batch"][f"batch_{size}"] = {
            "runs": size,
            "wall_s": wall,
            "runs_per_s": size / wall,
            "speedup_vs_scalar": (size / wall) / scalar_runs_per_s,
        }

    # -- sharded campaign at 1/2/4 worker processes --
    # The same harness (coordinator + forked pipe workers) at every
    # count, so shards_1 honestly pays the worker start the others
    # amortize.  The regression gate (--min-shard-speedup) applies at
    # 2 shards; 4 is reported for the scaling curve.  Sized so the
    # serial compute (~2 s quick) dominates worker start (a forked
    # worker sends its hello ~6ms after start): on a >= 2-core host
    # the model predicts ~1.9x at 2 shards, leaving headroom over the
    # 1.6x CI floor.  On a single-core host the speedup honestly reads
    # <= 1.0 (workers time-slice one CPU) -- apply the gate only where
    # cores exist.
    from repro.runtime.shard import ShardCoordinator
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
        ShardCoordinator(count).run(
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
    if "batch" in r:
        b = r["batch"]
        lines.append(
            f"  batched sweep      "
            f"{b['batch_1024']['runs_per_s']:9.0f} runs/s @1024 "
            f"({b['batch_1024']['speedup_vs_scalar']:.1f}x scalar; "
            f"64: {b['batch_64']['speedup_vs_scalar']:.1f}x, "
            f"1: {b['batch_1']['speedup_vs_scalar']:.2f}x)"
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
