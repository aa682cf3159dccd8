"""Implementations of the `repro` command-line subcommands.

Each command takes parsed ``argparse`` arguments and returns a process
exit code.  All output is plain text built from `repro.report`.
"""

from __future__ import annotations

import sys

from repro.ace.counters import AceCounterMode
from repro.runtime import (
    CampaignError,
    ExecutionEngine,
    FailurePolicy,
    FleetStatus,
    FleetStatusServer,
    JsonlEventSink,
    ResumeState,
    RetryPolicy,
    StderrProgressSink,
    default_jobs,
    replay_timings,
)
from repro.ace.hardware_cost import (
    baseline_big_core_cost,
    in_order_core_cost,
    rob_only_big_core_cost,
)
from repro.config import STANDARD_MACHINES, big_core_config, small_core_config
from repro.power import PowerModel
from repro.report import (
    bar_chart,
    comparison_summary,
    format_table,
    run_summary,
    sweep_summary,
)
from repro.sched.oracle import best_sser_schedule, best_stp_schedule
from repro.sim.experiment import (
    SCHEDULER_NAMES,
    make_scheduler,
    run_workload,
    sweep,
    sweep_specs,
)
from repro.sim.isolated import isolated_stats
from repro.sim.multicore import default_models
from repro.workloads.generator import generate_trace
from repro.workloads.mixes import generate_workloads
from repro.workloads.spec2006 import (
    BENCHMARK_NAMES,
    SUITE,
    benchmark,
    big_core_avf,
    classify_benchmarks,
)


def _machine(args):
    try:
        machine = STANDARD_MACHINES[args.machine]()
    except KeyError:
        print(f"error: unknown machine {args.machine!r}; "
              f"known: {', '.join(STANDARD_MACHINES)}", file=sys.stderr)
        return None
    if getattr(args, "small_frequency", None):
        machine = machine.with_small_frequency(args.small_frequency)
    return machine


def _jobs(args) -> int:
    """Worker count: ``--jobs`` flag, else the ``REPRO_JOBS`` env var."""
    if getattr(args, "jobs", None):
        return max(1, args.jobs)
    return default_jobs()


def _sinks(args, verbose: bool):
    """Event sinks for a campaign command (progress + JSONL log)."""
    sinks = []
    if verbose:
        sinks.append(StderrProgressSink())
    if getattr(args, "event_log", None):
        sinks.append(JsonlEventSink(args.event_log))
    return sinks


def _close_sinks(sinks) -> None:
    for sink in sinks:
        sink.close()


def _checks(args):
    """Per-result invariant hook when ``--check`` was passed."""
    if getattr(args, "check", False):
        from repro.check import default_run_checks
        return default_run_checks
    return None


def _benchmarks(args):
    names = [n.strip() for n in args.benchmarks.split(",") if n.strip()]
    unknown = [n for n in names if n not in SUITE]
    if unknown:
        print(f"error: unknown benchmark(s): {', '.join(unknown)}",
              file=sys.stderr)
        return None
    return names


def cmd_run(args) -> int:
    """Run one workload under one scheduler and print a report."""
    machine = _machine(args)
    names = _benchmarks(args)
    if machine is None or names is None:
        return 2
    mode = (AceCounterMode.ROB_ONLY if args.rob_only
            else AceCounterMode.FULL)
    observing = args.profile or args.obs_out
    if observing:
        import contextlib

        from repro.obs import metrics as obs_metrics
        from repro.obs import tracing as obs_tracing

        with contextlib.ExitStack() as stack:
            registry = stack.enter_context(obs_metrics.collecting())
            tracer = stack.enter_context(obs_tracing.collecting())
            result = run_workload(
                machine, names, args.scheduler,
                instructions=args.instructions, seed=args.seed,
                counter_mode=mode, record_timeline=args.gantt,
            )
        snapshot = registry.snapshot()
    else:
        result = run_workload(
            machine, names, args.scheduler,
            instructions=args.instructions, seed=args.seed,
            counter_mode=mode, record_timeline=args.gantt,
        )
    power_model = PowerModel(machine) if args.power else None
    print(run_summary(result, power_model))
    if args.gantt:
        from repro.report.gantt import schedule_chart
        print()
        print(schedule_chart(result))
    if observing:
        from repro.obs.tracing import format_tree, top_self_time
        if args.profile:
            print("\nspan tree:")
            print(format_tree(tracer.root))
            print("\ntop self time:")
            rows = [
                [label, count, float(total * 1e3), float(self_s * 1e3)]
                for label, count, total, self_s in top_self_time(tracer.root)
            ]
            print(format_table(
                ["span", "count", "total ms", "self ms"], rows,
                float_format="{:.3f}",
            ))
            print("\nmetrics:")
            print(format_table(
                ["series", "kind", "count", "total", "mean"],
                snapshot.rows(),
            ))
        if args.obs_out:
            import json

            with open(args.obs_out, "w") as handle:
                json.dump(
                    {
                        "metrics": snapshot.to_dict(),
                        "spans": tracer.to_dict(),
                    },
                    handle, indent=2, sort_keys=True,
                )
                handle.write("\n")
            print(f"\nwrote observability dump to {args.obs_out}")
    return 0


def cmd_compare(args) -> int:
    """Run one workload under all three schedulers and compare."""
    machine = _machine(args)
    names = _benchmarks(args)
    if machine is None or names is None:
        return 2
    results = {
        scheduler: run_workload(
            machine, names, scheduler,
            instructions=args.instructions, seed=args.seed,
        )
        for scheduler in SCHEDULER_NAMES
    }
    print(comparison_summary(results))
    print()
    print("SSER (lower is better):")
    print(bar_chart({name: r.sser / results["random"].sser
                     for name, r in results.items()}))
    print("STP (higher is better):")
    print(bar_chart({name: r.stp / results["random"].stp
                     for name, r in results.items()}))
    return 0


def cmd_sweep(args) -> int:
    """Run the paper's 36-workload sweep on a machine.

    The campaign plan comes from
    :func:`repro.sim.experiment.sweep_specs` and runs as one
    :meth:`ExecutionEngine.run_many` on ``--jobs`` workers, which
    records the width in the plan, so ``repro resume`` keeps it.
    stdout is byte-identical for any worker count; a
    :class:`~repro.runtime.shard.FleetStatus` sink counts the progress
    for the closing stderr line and, with ``--status-socket``, a live
    UNIX socket speaking the ``repro serve`` framing.
    """
    machine = _machine(args)
    if machine is None:
        return 2
    try:
        fault_plan = _fault_plan(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    workloads = generate_workloads(args.programs, seed=args.workload_seed)
    specs, labels = sweep_specs(machine, workloads, SCHEDULER_NAMES,
                                instructions=args.instructions)
    fleet = FleetStatus(len(specs))
    sinks = _sinks(args, args.verbose)
    engine = ExecutionEngine(
        _jobs(args),
        failure_policy=FailurePolicy(args.failures),
        timeout_seconds=args.timeout,
        sinks=[fleet, *sinks],
        fault_plan=fault_plan,
        checks=_checks(args),
        metrics=args.metrics,
        spans=args.spans,
    )
    server = None
    if args.status_socket:
        server = FleetStatusServer(fleet, args.status_socket)
        server.start()
        print(f"fleet status on {args.status_socket}", file=sys.stderr)
    try:
        report = engine.run_many(specs, machines=machine, labels=labels,
                                 store=args.store)
    except CampaignError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if server is not None:
            server.close()
        _close_sinks(sinks)
    sections, ok = [], not report.failures
    if report.failures:
        # Failed jobs have no result: the per-job table stands in.
        summary = _campaign_stdout(specs, report)
    else:
        results = _by_scheduler(specs, report.results)
        if args.modes:
            results["modes"], sections, ok = _mode_sweep(
                machine, workloads, args.instructions, check=args.check,
            )
        summary = sweep_summary(results)
    print(summary)
    for section in sections:
        print()
        print(section)
    print(f"\n{fleet.format_line()}", file=sys.stderr)
    for outcome in report.failures:
        print(f"failed: {outcome.label}: {outcome.error}", file=sys.stderr)
    if report.failures and args.store:
        print(f"postmortems: repro postmortem --list --store {args.store}",
              file=sys.stderr)
    return 0 if ok else 1


def _mode_sweep(machine, workloads, instructions, check=False):
    """Run every workload under the (placement x protection-mode) search.

    Mode runs execute directly (the engine's RunSpec vocabulary stays
    placement-only) and return one result per workload so the sweep
    summary can normalize them against the same random baseline.
    Returns ``(results, sections, ok)`` where ``sections`` are the
    extra report blocks: aggregate mode usage, the mean per-component
    (core/L2/L3) SSER breakdown, and the mean SSER with protection
    applied.
    """
    from repro.ace.uncore import format_sser_breakdown, run_sser_breakdown
    from repro.metrics.reliability import SserBreakdown
    from repro.sched.modes import ModeAwareReliabilityScheduler, apply_modes
    from repro.sim.multicore import MulticoreSimulation

    results = []
    mode_quanta: dict[str, int] = {}
    breakdowns = []
    moded_ssers = []
    reports = []
    for index, mix in enumerate(workloads):
        profiles = [
            benchmark(name).scaled(instructions)
            for name in mix.benchmarks
        ]
        scheduler = ModeAwareReliabilityScheduler(machine, len(profiles))
        result = MulticoreSimulation(machine, profiles, scheduler).run()
        result.scheduler_name = "modes"
        schedule = scheduler.mode_schedule()
        outcome = apply_modes(result, schedule, machine.memory)
        for counts in schedule.quanta_by_app:
            for key, quanta in counts.items():
                mode_quanta[key] = mode_quanta.get(key, 0) + quanta
        breakdowns.append(run_sser_breakdown(result, machine.memory))
        moded_ssers.append(outcome.moded_sser)
        results.append(result)
        if check:
            from repro.check import check_mode_outcome, check_run

            label = f"{mix.category}/{index} modes"
            reports.append(check_run(result, label=label))
            reports.append(check_mode_outcome(
                outcome, result, schedule, machine.memory, label=label
            ))

    sections = []
    total = sum(mode_quanta.values())
    rows = [
        [key, quanta, float(100 * quanta / total)]
        for key, quanta in sorted(mode_quanta.items())
    ]
    sections.append(
        "protection-mode usage (app-quanta across the sweep):\n"
        + format_table(["mode", "quanta", "%"], rows,
                       float_format="{:.1f}")
    )
    count = len(breakdowns)
    mean = SserBreakdown(
        core_sser=sum(b.core_sser for b in breakdowns) / count,
        l2_sser=sum(b.l2_sser for b in breakdowns) / count,
        l3_sser=sum(b.l3_sser for b in breakdowns) / count,
    )
    sections.append(
        "per-component SSER, mean over mode runs (unprotected):\n"
        + format_sser_breakdown(mean)
    )
    sections.append(
        "mean SSER with protection applied: "
        f"{sum(moded_ssers) / count:.6e} "
        f"(unprotected chip mean {mean.chip_sser:.6e})"
    )
    ok = True
    if check:
        from repro.check import merge_reports

        report = merge_reports(reports, subject="modes")
        sections.append(report.format())
        ok = report.ok
    return results, sections, ok


def _by_scheduler(specs, results) -> dict[str, list]:
    """A campaign's results grouped by scheduler, in spec order."""
    grouped: dict[str, list] = {}
    for spec, result in zip(specs, results):
        grouped.setdefault(spec.scheduler, []).append(result)
    return grouped


def _campaign_stdout(specs, report) -> str:
    """The canonical stdout for a finished campaign.

    A scheduler sweep prints the same summary ``repro sweep`` would
    have; other campaign shapes get a per-job table.  ``repro resume``
    prints it, and so does ``repro sweep --failures collect`` when
    jobs failed, so a resumed campaign's stdout is byte-identical to
    the uninterrupted one's.
    """
    results = report.results
    if all(result is not None for result in results):
        by_scheduler = _by_scheduler(specs, results)
        lengths = {len(v) for v in by_scheduler.values()}
        if "random" in by_scheduler and len(lengths) == 1:
            return sweep_summary(by_scheduler)
    # Failed jobs have no result, so a sweep summary cannot be built;
    # fall back to the per-job table (collect-mode campaigns).
    rows = [
        [o.index, o.label,
         ("failed" if o.error is not None
          else "cached" if o.cached else "executed"),
         float(o.wall_seconds)]
        for o in report.outcomes
    ]
    return format_table(["job", "label", "source", "wall s"], rows,
                        float_format="{:.3f}")


def cmd_resume(args) -> int:
    """Finish an interrupted campaign from its JSONL event log.

    The log's campaign-plan record supplies the specs, result store
    and engine settings; jobs the log records as completed are served
    from the store, pending and failed ones re-run.  The campaign runs
    on one engine whose width is ``--jobs``, else the plan's worker
    count, else ``REPRO_JOBS``.  Progress goes to stderr;
    the final summary (matching what the uninterrupted command would
    have printed) goes to stdout.
    """
    try:
        state = ResumeState.load(args.path)
    except (OSError, ValueError) as error:
        print(f"error: cannot resume {args.path}: {error}", file=sys.stderr)
        return 2
    store = args.store or state.store
    if store is None:
        print(
            "error: the log's campaign ran without a result store, so "
            "its completed results were never persisted; pass --store "
            "DIR (everything will re-run into it)",
            file=sys.stderr,
        )
        return 2
    machine = ExecutionEngine.machine_from_descriptor(state.machine)
    print(f"resuming {args.path}: {state.summary()}", file=sys.stderr)

    live = [StderrProgressSink()] if args.verbose else []
    # Resumed events append to the original log by default, so the log
    # stays the single source of truth (and remains resumable again).
    log_sink = JsonlEventSink(args.event_log or args.path)
    engine = ExecutionEngine(
        max(1, args.jobs) if args.jobs else state.shards or default_jobs(),
        retry=RetryPolicy(
            max_attempts=state.max_attempts, base_delay_seconds=0.0
        ),
        failure_policy=FailurePolicy(state.failure_policy),
        timeout_seconds=state.timeout_seconds,
        sinks=[*live, log_sink],
        checks=_checks(args),
        metrics=state.metrics,
        spans=state.spans,
    )
    try:
        report = engine.run_many(
            state.specs,
            machines=machine,
            labels=state.labels,
            store=store,
            resume_from=state,
        )
    except CampaignError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        log_sink.close()
        _close_sinks(live)
    if report.failures:
        for outcome in report.failures:
            print(f"failed: {outcome.label}: {outcome.error}",
                  file=sys.stderr)
        return 1

    print(_campaign_stdout(state.specs, report))
    print(f"\nresumed: {report.cache_hits} from store, "
          f"{report.executed} executed; store: {store}", file=sys.stderr)
    return 0


def _fault_plan(args):
    """Build a FaultPlan from the chaos-drill flags, or None."""
    from repro.runtime.engine import FaultPlan

    def parse_pairs(text, cast, flag):
        out = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            index, _, value = item.partition(":")
            try:
                out[int(index)] = cast(value)
            except ValueError:
                raise ValueError(
                    f"bad {flag} entry {item!r}; expected INDEX:VALUE"
                ) from None
        return out

    fail_attempts = (
        parse_pairs(args.inject_fail, int, "--inject-fail")
        if args.inject_fail else {}
    )
    sleep_seconds = (
        parse_pairs(args.inject_sleep, float, "--inject-sleep")
        if args.inject_sleep else {}
    )
    if not fail_attempts and not sleep_seconds:
        return None
    return FaultPlan(
        fail_attempts=fail_attempts, sleep_seconds=sleep_seconds
    )


def cmd_avf(args) -> int:
    """Print the suite's big-core AVF spectrum and classification."""
    classes = classify_benchmarks()
    avf = {name: big_core_avf(SUITE[name]) for name in BENCHMARK_NAMES}
    ordered = sorted(avf, key=avf.get)
    rows = [[name, classes[name], float(100 * avf[name])] for name in ordered]
    print(format_table(["benchmark", "class", "AVF %"], rows,
                       float_format="{:.1f}"))
    if args.chart:
        print()
        print(bar_chart({name: avf[name] for name in ordered},
                        value_format="{:.3f}"))
    return 0


def cmd_oracle(args) -> int:
    """Enumerate static schedules for a mix (Section 2.4's oracle)."""
    machine = _machine(args)
    names = _benchmarks(args)
    if machine is None or names is None:
        return 2
    if len(names) != machine.num_cores:
        print(f"error: {machine.name} needs {machine.num_cores} benchmarks",
              file=sys.stderr)
        return 2
    models = default_models(machine)
    stats = [
        isolated_stats(benchmark(n).scaled(args.instructions),
                       models["big"], models["small"])
        for n in names
    ]
    from repro.sched.oracle import enumerate_schedules
    rows = []
    for schedule in sorted(enumerate_schedules(stats, machine),
                           key=lambda s: s.sser):
        big_names = ",".join(names[i] for i in schedule.big_apps)
        rows.append([big_names, float(schedule.sser), float(schedule.stp)])
    print(format_table(["on big cores", "SSER (unscaled)", "STP"], rows,
                       float_format="{:.4g}"))
    best_r = best_sser_schedule(stats, machine)
    best_p = best_stp_schedule(stats, machine)
    print(f"\nreliability oracle: {[names[i] for i in best_r.big_apps]} on big")
    print(f"performance oracle: {[names[i] for i in best_p.big_apps]} on big")
    print(f"SER gain {100 * (1 - best_r.sser / best_p.sser):.1f}% at "
          f"STP loss {100 * (1 - best_r.stp / best_p.stp):.1f}%")
    return 0


def cmd_workloads(args) -> int:
    """List the canonical workload mixes for a program count."""
    workloads = generate_workloads(args.programs, seed=args.workload_seed)
    rows = [[i, w.category, ", ".join(w.benchmarks)]
            for i, w in enumerate(workloads)]
    print(format_table(["index", "category", "benchmarks"], rows))
    return 0


def cmd_trace(args) -> int:
    """Generate a synthetic trace and print its statistics."""
    if args.spans:
        return _show_spans(args.spans)
    if args.benchmark is None:
        print("error: benchmark argument required unless --spans is given",
              file=sys.stderr)
        return 2
    if args.benchmark not in SUITE:
        print(f"error: unknown benchmark {args.benchmark!r}", file=sys.stderr)
        return 2
    trace = generate_trace(benchmark(args.benchmark), args.length,
                           seed=args.seed)
    from repro.isa.instruction import InstructionClass
    rows = [[cls.name.lower(), float(100 * trace.class_fraction(cls))]
            for cls in InstructionClass
            if trace.class_fraction(cls) > 0]
    print(f"trace: {args.benchmark}, {len(trace)} instructions")
    print(f"branch MPKI {trace.branch_mpki:.2f}, "
          f"I-cache MPKI {trace.icache_mpki:.2f}")
    print(format_table(["class", "%"], rows, float_format="{:.1f}"))
    if args.simulate:
        from repro.cores.base import ISOLATED
        from repro.cores.inorder import InOrderCoreModel
        from repro.cores.ooo import OutOfOrderCoreModel
        from repro.cores.tracebase import TraceApplication
        big = OutOfOrderCoreModel(big_core_config())
        small = InOrderCoreModel(small_core_config())
        rows = []
        for label, model in (("big", big), ("small", small)):
            app = TraceApplication(trace)
            result = model.run_cycles(app, 0, 10 * len(trace), ISOLATED)
            rows.append([label, float(result.ipc),
                         float(100 * result.avf(model.core)),
                         float(result.ace_bits_per_cycle())])
        print(format_table(["core", "IPC", "AVF %", "ACE bits/cycle"], rows,
                           float_format="{:.2f}"))
    return 0


def _show_spans(path: str) -> int:
    """Render a saved span tree (from ``repro run --obs-out``)."""
    import json

    from repro.obs.tracing import SpanNode, format_tree, top_self_time

    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"error: cannot load {path}: {error}", file=sys.stderr)
        return 2
    if "spans" in data and "name" not in data:
        data = data["spans"]  # an --obs-out dump; unwrap the span tree
    root = SpanNode.from_dict(data)
    print(format_tree(root))
    print("\ntop self time:")
    rows = [
        [label, count, float(total * 1e3), float(self_s * 1e3)]
        for label, count, total, self_s in top_self_time(root)
    ]
    print(format_table(["span", "count", "total ms", "self ms"], rows,
                       float_format="{:.3f}"))
    return 0


def cmd_figure(args) -> int:
    """Render an evaluation figure as an ASCII chart."""
    machine = _machine(args)
    if machine is None:
        return 2
    from pathlib import Path

    from repro.report.figures import render_fig06, render_fig07, render_fig12
    from repro.runtime import CallbackSink, CampaignFinished

    workloads = generate_workloads(args.programs)
    events = []
    sinks = _sinks(args, getattr(args, "verbose", False))
    try:
        results = sweep(machine, workloads, SCHEDULER_NAMES,
                        instructions=args.instructions, jobs=_jobs(args),
                        sinks=[*sinks, CallbackSink(events.append)],
                        checks=_checks(args),
                        metrics=getattr(args, "metrics", False),
                        store=args.cache_dir)
    except CampaignError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        _close_sinks(sinks)
    if args.id == "fig06":
        print(render_fig06(results))
    elif args.id == "fig07":
        print(render_fig07(results, workloads))
    elif args.id == "fig12":
        print(render_fig12(results, machine))
    else:
        print(f"error: unknown figure {args.id!r}", file=sys.stderr)
        return 2
    totals = next(e for e in events if isinstance(e, CampaignFinished))
    print(f"\n({totals.cached} cached runs, "
          f"{totals.total - totals.cached} simulated; "
          f"cache: {Path(args.cache_dir)})")
    return 0


def cmd_inject(args) -> int:
    """Fault-injection campaign vs ACE counting for one benchmark."""
    if args.benchmark not in SUITE:
        print(f"error: unknown benchmark {args.benchmark!r}", file=sys.stderr)
        return 2
    from repro.ace.faultinject import FaultInjector
    from repro.cores.base import ISOLATED
    from repro.cores.ooo import OutOfOrderCoreModel
    from repro.cores.tracebase import TraceApplication

    config = big_core_config()
    model = OutOfOrderCoreModel(config)
    trace = generate_trace(benchmark(args.benchmark), args.length,
                           seed=args.seed)
    timing = model.simulate_window(
        TraceApplication(trace), 0, 100 * args.length, ISOLATED
    )
    injector = FaultInjector(config, timing)
    result = injector.inject(trials=args.trials, seed=args.seed)
    counting = injector.counting_avf()
    low, high = result.confidence_interval()
    print(f"benchmark {args.benchmark}: {timing.committed} instructions, "
          f"{timing.elapsed_cycles:.0f} cycles")
    print(f"ACE-counting AVF:     {100 * counting:.2f}%")
    print(f"fault-injection AVF:  {100 * result.avf_estimate:.2f}% "
          f"(95% CI [{100 * low:.2f}%, {100 * high:.2f}%], "
          f"{result.trials} injections)")
    rows = [
        [kind, trials, hits, float(100 * hits / trials) if trials else 0.0]
        for kind, (trials, hits) in result.per_structure.items()
    ]
    print(format_table(["structure", "trials", "ACE hits", "AVF %"], rows,
                       float_format="{:.1f}"))
    return 0


def cmd_events(args) -> int:
    """Replay one or more JSONL campaign event logs to per-job timings.

    Several logs (several campaigns into one log set, or per-shard
    logs written before a fleet had one log) merge deterministically:
    events sort by timestamp, then by the position of their log on the
    command line.
    """
    from repro.runtime import read_events_merged

    paths = list(args.path)
    try:
        timings = replay_timings(read_events_merged(paths))
    except (OSError, ValueError) as error:
        print(f"error: cannot replay {', '.join(paths)}: {error}",
              file=sys.stderr)
        return 2
    rows = [
        [t.index, t.label, t.status, t.attempts, float(t.wall_seconds)]
        for t in timings
    ]
    print(format_table(["job", "label", "status", "attempts", "wall s"],
                       rows, float_format="{:.3f}"))
    executed = [t for t in timings if t.status == "ok"]
    failed = sum(1 for t in timings if t.status == "failed")
    cached = sum(1 for t in timings if t.status == "cached")
    total_wall = sum(t.wall_seconds for t in executed)
    print(f"\n{len(timings)} jobs: {len(executed)} executed "
          f"({total_wall:.2f}s simulated wall time), "
          f"{cached} cached, {failed} failed")
    return 0 if failed == 0 else 1


def cmd_stats(args) -> int:
    """Aggregate MetricsSnapshot events from campaign event logs.

    Accepts several logs (several campaigns into one roll-up, or
    per-shard logs written before a fleet had one log); they merge
    deterministically before aggregation, so the counter totals are
    order-independent.
    """
    from repro.obs import metrics as obs_metrics
    from repro.runtime.events import (
        MetricsSnapshot,
        SpanSnapshot,
        read_events_merged,
    )

    paths = list(args.path)
    try:
        events = read_events_merged(paths)
    except (OSError, ValueError) as error:
        print(f"error: cannot read {', '.join(paths)}: {error}",
              file=sys.stderr)
        return 2
    registry = obs_metrics.MetricsRegistry()
    snapshots = 0
    span_roots = []
    for event in events:
        if isinstance(event, MetricsSnapshot):
            registry.merge(event.metrics)
            snapshots += 1
        elif isinstance(event, SpanSnapshot) and event.spans:
            span_roots.append(event.spans)
    if snapshots == 0 and not (getattr(args, "spans", False) and span_roots):
        print(f"error: no metrics snapshots in {', '.join(paths)} "
              "(run the campaign with --metrics)", file=sys.stderr)
        return 1
    merged = registry.snapshot()
    if getattr(args, "openmetrics", False):
        from repro.obs import openmetrics as obs_openmetrics

        # Deterministic exposition: no paths, no wall clock, so the
        # same logs print the same bytes.
        print(obs_openmetrics.render_snapshot(merged), end="")
    else:
        print(format_table(["series", "kind", "count", "total", "mean"],
                           merged.rows()))
        print(f"\n{snapshots} snapshot(s) aggregated from "
              f"{', '.join(paths)}")
    if getattr(args, "spans", False):
        from repro.obs.tracing import SpanNode, format_tree, merge_trees

        forest = merge_trees(SpanNode.from_dict(r) for r in span_roots)
        print(f"\nfleet span forest "
              f"({len(span_roots)} span snapshot(s)):")
        print(format_tree(forest))
    if args.csv:
        obs_metrics.write_csv(merged, args.csv)
        print(f"wrote {args.csv}")
    return 0


def cmd_explain(args) -> int:
    """Record, render and validate a scheduler decision trace."""
    import json

    from repro.check import check_decision_trace
    from repro.obs.decisions import (
        DECISION_TRACE_SCHEMA,
        DecisionTraceRecorder,
        ReplayError,
        format_trace,
        read_trace,
        replay_trace,
        write_trace,
    )

    if args.schema:
        print(json.dumps(DECISION_TRACE_SCHEMA, indent=2, sort_keys=True))
        return 0

    if args.replay:
        try:
            records = read_trace(args.replay)
        except (OSError, ValueError) as error:
            print(f"error: cannot read {args.replay}: {error}",
                  file=sys.stderr)
            return 2
        label = args.replay
    else:
        machine = _machine(args)
        names = _benchmarks(args)
        if machine is None or names is None:
            return 2
        # The mode-aware scheduler runs under-committed machines (a
        # spare small core becomes a DMR checker slot); every other
        # scheduler needs one app per core.
        if args.scheduler == "modes":
            if not 0 < len(names) <= machine.num_cores:
                print(f"error: {machine.name} takes at most "
                      f"{machine.num_cores} benchmarks", file=sys.stderr)
                return 2
        elif len(names) != machine.num_cores:
            print(f"error: {machine.name} needs {machine.num_cores} "
                  f"benchmarks", file=sys.stderr)
            return 2
        from repro.sim.multicore import MulticoreSimulation

        profiles = [benchmark(n).scaled(args.instructions) for n in names]
        if args.scheduler == "constrained":
            from repro.sched.constrained import (
                ConstrainedReliabilityScheduler,
            )

            scheduler = ConstrainedReliabilityScheduler(
                machine, len(profiles), max_stp_loss=args.max_stp_loss
            )
        else:
            scheduler = make_scheduler(
                args.scheduler, machine, len(profiles), args.seed
            )
        recorder = DecisionTraceRecorder()
        scheduler.recorder = recorder
        MulticoreSimulation(machine, profiles, scheduler).run()
        records = recorder.records
        label = f"{machine.name}/{args.scheduler}/{'+'.join(names)}"
        if args.json:
            write_trace(records, args.json)
            print(f"wrote {len(records)} quantum records to {args.json}\n")

    if not records:
        print("error: decision trace is empty", file=sys.stderr)
        return 1
    print(format_trace(records, max_quanta=args.max_quanta))
    print()
    try:
        final = replay_trace(records)
        print(f"replayed final assignment: {final}")
    except ReplayError as error:
        print(f"error: trace does not replay: {error}", file=sys.stderr)
        return 1
    report = check_decision_trace(records, label=label)
    print(report.format())
    return 0 if report.ok else 1


def cmd_check(args) -> int:
    """Run the paper-invariant fuzzer and the golden regression corpus."""
    from pathlib import Path

    from repro.check import compare_goldens, fuzz, regenerate_goldens

    golden_dir = Path(args.golden_dir)
    if args.update_goldens:
        written = regenerate_goldens(golden_dir)
        for path in written:
            print(f"wrote {path}")
        return 0

    failed = False
    if not args.skip_fuzz:
        report = fuzz(
            args.seed,
            model_cases=args.model_cases,
            run_cases=args.run_cases,
            stack_cases=args.stack_cases,
            kernel_cases=args.kernel_cases,
            decision_cases=args.decision_cases,
            resume_cases=args.resume_cases,
            service_cases=args.service_cases,
            mode_cases=args.mode_cases,
        )
        print(report.format())
        failed = failed or not report.ok
    if not args.skip_goldens:
        if not args.skip_fuzz:
            print()
        report = compare_goldens(golden_dir)
        print(report.format())
        failed = failed or not report.ok
    return 1 if failed else 0


def cmd_bench(args) -> int:
    """Run the hot-path perf benchmarks and write BENCH_PERF.json."""
    from repro.kernels.bench import format_report, run_bench, write_report

    report = run_bench(quick=args.quick)
    print(format_report(report))
    path = write_report(report, args.output)
    print(f"\nwrote {path}")
    if args.min_ooo_speedup is not None:
        speedup = report["results"]["ooo_window"][
            "kernel_vs_reference_speedup"
        ]
        if speedup < args.min_ooo_speedup:
            print(
                f"error: OoO kernel speedup {speedup:.2f}x is below the "
                f"{args.min_ooo_speedup:.2f}x floor",
                file=sys.stderr,
            )
            return 1
    if args.max_disabled_overhead is not None:
        span_overhead = report["results"]["span_overhead"]
        for path_name, key in (
            ("OoO", "disabled_overhead"),
            ("in-order", "inorder_disabled_overhead"),
        ):
            overhead = span_overhead.get(key)
            if overhead is None:
                continue
            if overhead > args.max_disabled_overhead:
                print(
                    f"error: disabled-observability overhead on the "
                    f"{path_name} path ({100 * overhead:.2f}%) exceeds "
                    f"the {100 * args.max_disabled_overhead:.2f}% ceiling",
                    file=sys.stderr,
                )
                return 1
    if args.min_shard_speedup is not None:
        speedup = report["results"]["shard"]["shards_2"]["speedup_vs_1"]
        if speedup < args.min_shard_speedup:
            print(
                f"error: sharded-campaign speedup {speedup:.2f}x at 2 "
                f"shards is below the {args.min_shard_speedup:.2f}x "
                f"floor",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_cost(args) -> int:
    """Print the ACE counter architecture hardware cost (Section 4.2)."""
    big, small = big_core_config(), small_core_config()
    rows = []
    for label, cost in (
        ("baseline big-core", baseline_big_core_cost(big)),
        ("ROB-only big-core", rob_only_big_core_cost(big)),
        ("in-order core", in_order_core_cost(small)),
    ):
        rows.append([label, cost.storage_bits, cost.adders,
                     cost.bit_equivalents, cost.bytes])
    print(format_table(
        ["implementation", "storage bits", "adders", "bit-equiv", "bytes"],
        rows,
    ))
    return 0


def cmd_serve(args) -> int:
    """Serve the open-system scheduler over stdin/stdout or a socket."""
    import asyncio
    from contextlib import ExitStack
    from pathlib import Path

    from repro.service import (
        OpenSystem,
        SchedulerService,
        ServiceConfig,
        ServiceFeed,
    )

    machine = _machine(args)
    if machine is None:
        return 1
    config = ServiceConfig(
        machine=machine,
        scheduler=args.scheduler,
        admission=args.admission,
        queue_capacity=args.queue_limit,
        deadline_seconds=args.deadline,
    )
    with ExitStack() as stack:
        feed = None
        if args.event_feed:
            handle = stack.enter_context(open(args.event_feed, "a"))
            feed = ServiceFeed(stream=handle)
        system = OpenSystem(config, feed=feed)
        service = SchedulerService(
            system, default_instructions=args.instructions
        )
        if args.socket:
            socket_path = Path(args.socket)
            socket_path.unlink(missing_ok=True)
            stack.callback(socket_path.unlink, missing_ok=True)
            asyncio.run(service.serve_socket(args.socket))
        else:
            asyncio.run(service.serve_stdio())
    return 0


def cmd_load(args) -> int:
    """Drive seeded arrival streams and print the delay-vs-SSER table.

    Each rate's point runs whole, on one of ``--jobs`` workers; the
    table, timelines, digests and ``--event-feed`` lines come out in
    rate order, so the output is the same at any ``--jobs``.
    """
    from repro.check import check_service, merge_reports
    from repro.runtime.engine import ExecutionEngine
    from repro.service import (
        ServiceConfig,
        make_process,
        service_benchmark_pool,
    )
    from repro.service.load import format_load_table, run_load_task

    machine = _machine(args)
    if machine is None:
        return 1
    try:
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
    except ValueError:
        print(f"error: bad --rates {args.rates!r}", file=sys.stderr)
        return 1
    if not rates:
        print("error: --rates names no arrival rates", file=sys.stderr)
        return 1

    config = ServiceConfig(
        machine=machine,
        scheduler=args.scheduler,
        admission=args.admission,
        queue_capacity=args.queue_limit,
        deadline_seconds=args.deadline,
    )
    benchmarks = service_benchmark_pool()
    tasks = [
        (
            config,
            make_process(
                args.process,
                rate,
                benchmarks,
                seed=args.seed,
                instructions=args.instructions,
            ),
            args.arrivals,
        )
        for rate in rates
    ]
    runs = ExecutionEngine(jobs=_jobs(args)).map_tasks(run_load_task, tasks)
    points = [point for point, _ in runs]
    feeds = [feed for _, feed in runs]
    if args.event_feed:
        with open(args.event_feed, "a") as handle:
            for feed in feeds:
                handle.write("".join(line + "\n" for line in feed.lines))
    reports = [
        check_service(point.result, label=f"load@{rate:g}/s")
        for point, rate in zip(points, rates)
    ]

    print(format_load_table(points))
    if getattr(args, "timeline", False):
        from repro.service.load import format_timeline, service_timeline

        for point, feed in zip(points, feeds):
            windows = service_timeline(
                feed.events,
                windows=getattr(args, "timeline_windows", 12),
            )
            print(f"\ntimeline @ {point.rate_per_second:g}/s:")
            print(format_timeline(windows))
    if args.digest:
        print()
        for point in points:
            print(
                f"feed sha256 @ {point.rate_per_second:g}/s: {point.digest}"
            )
    checked = merge_reports(reports, subject="load")
    if not checked.ok:
        print()
        print(checked.format())
        return 1
    if args.min_shed_rate is not None:
        peak = max(point.shed_rate for point in points)
        if peak < args.min_shed_rate:
            print(
                f"error: peak shed rate {peak:.3f} is below the "
                f"{args.min_shed_rate:.3f} floor",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_postmortem(args) -> int:
    """Render crash flight-recorder bundles from a result store."""
    import json

    from repro.obs import flight as obs_flight

    bundles = obs_flight.find_bundles(args.store)
    if args.list or args.key is None:
        if args.key is None and not args.list:
            print("error: pass a run key (or --list to enumerate)",
                  file=sys.stderr)
            return 2
        if not bundles:
            print(f"no postmortem bundles under {args.store}")
            return 0
        rows = []
        for path in bundles:
            bundle = obs_flight.load_bundle(path)
            trace = bundle.get("trace") or {}
            rows.append([
                bundle.get("key", path.stem)[:16],
                bundle.get("label", ""),
                bundle.get("reason", "?"),
                str(trace.get("shard", "-")),
            ])
        print(format_table(["key", "label", "reason", "shard"], rows))
        return 0
    matches = [p for p in bundles if p.stem.startswith(args.key)]
    if not matches:
        print(f"error: no bundle for key {args.key!r} under "
              f"{args.store} (try --list)", file=sys.stderr)
        return 1
    if len(matches) > 1:
        print(f"error: key prefix {args.key!r} is ambiguous "
              f"({len(matches)} bundles; try --list)", file=sys.stderr)
        return 1
    bundle = obs_flight.load_bundle(matches[0])
    if args.json:
        print(json.dumps(bundle, indent=2, sort_keys=True))
    else:
        print(obs_flight.format_bundle(bundle))
    return 0


def cmd_top(args) -> int:
    """Live fleet view polling a `repro sweep --status-socket` socket."""
    import json
    import socket
    import time

    def query(op):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            client.connect(args.socket)
            with client.makefile("rw") as stream:
                stream.write(json.dumps({"op": op}) + "\n")
                stream.flush()
                line = stream.readline()
        if not line.strip():
            raise OSError("empty response")
        response = json.loads(line)
        if not response.get("ok"):
            raise OSError(response.get("error", "request failed"))
        return response

    def render(response):
        if args.openmetrics:
            return response["openmetrics"].rstrip("\n")
        fleet = response["fleet"]
        lines = [
            f"fleet {fleet['done']}/{fleet['total']} done  "
            f"{fleet['failed']} failed  {fleet['queued']} queued  "
            f"{fleet['cached']} cached  "
            f"{fleet['runs_per_s']:.1f} runs/s"
        ]
        eta = fleet.get("eta_seconds")
        lines.append(
            f"elapsed {fleet['elapsed_seconds']:.1f}s  eta "
            + (f"{eta:.0f}s" if eta is not None else "-")
        )
        rows = [[s["shard"], s["done"], s["failed"]]
                for s in fleet["shards"]]
        lines.append(format_table(["shard", "done", "failed"], rows))
        return "\n".join(lines)

    op = "metrics" if args.openmetrics else "fleet"
    try:
        if args.once:
            print(render(query(op)))
            return 0
        while True:
            print(render(query(op)))
            print()
            time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        return 0
    except OSError as error:
        print(f"error: cannot poll {args.socket}: {error}",
              file=sys.stderr)
        return 1
