"""`repro` command-line interface.

Subcommands:

* ``repro run``       -- run one workload under one scheduler
* ``repro compare``   -- compare the three schedulers on a workload
* ``repro sweep``     -- the 36-workload evaluation sweep
* ``repro avf``       -- suite AVF spectrum and H/M/L classes (Fig. 1)
* ``repro oracle``    -- static-schedule enumeration (Section 2.4)
* ``repro workloads`` -- list the canonical workload mixes
* ``repro trace``     -- generate and inspect a synthetic trace
* ``repro cost``      -- ACE counter hardware cost (Section 4.2)
* ``repro figure``    -- render an evaluation figure as an ASCII chart
* ``repro inject``    -- fault-injection campaign vs ACE counting
* ``repro events``    -- replay a campaign event log to job timings
* ``repro resume``    -- finish an interrupted campaign from its log
* ``repro check``     -- paper-invariant fuzzing + golden corpus
* ``repro bench``     -- simulation hot-path performance benchmarks
* ``repro stats``     -- aggregate metrics snapshots from an event log
* ``repro explain``   -- record and explain scheduler decision traces
* ``repro serve``     -- interactive open-system scheduler service
* ``repro load``      -- open-system load generator (delay-vs-SSER)
* ``repro postmortem``-- render crash flight-recorder bundles
* ``repro top``       -- live fleet view over a status socket

``repro sweep`` and ``repro figure`` execute through the
:mod:`repro.runtime` engine: ``--jobs N`` (or ``REPRO_JOBS=N``) fans
runs out over N worker processes, ``--event-log FILE`` appends
structured JSONL progress events for post-hoc analysis, and
``--metrics`` makes every job emit a mergeable metrics snapshot into
the event stream (aggregate with ``repro stats``).  ``repro sweep
--store DIR --event-log FILE`` makes the sweep durable: if the process
is killed, ``repro resume FILE`` finishes the remaining jobs on the
same number of workers and reports results identical to an
uninterrupted run.  ``repro sweep --status-socket PATH`` serves the
campaign's live progress to ``repro top``.  ``repro run
--profile`` prints the span tree and metrics of one run, and ``repro
trace --spans FILE`` renders a span tree saved with ``--obs-out``
(see ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.cli import commands

DEFAULT_INSTRUCTIONS = 100_000_000


def _add_machine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--machine", default="2B2S",
                        help="HCMP topology: 1B1S, 2B2S, 1B3S, 3B1S, 4B4S")
    parser.add_argument("--small-frequency", type=float, default=None,
                        help="small-core frequency in GHz (default: 2.66)")


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for parallel execution "
                             "(default: the REPRO_JOBS env var, else 1)")
    parser.add_argument("--event-log", default=None, metavar="FILE",
                        help="append structured JSONL progress events "
                             "to FILE (replay with `repro events`)")
    parser.add_argument("--check", action="store_true",
                        help="validate every run against the paper "
                             "invariants (repro.check); an invariant "
                             "violation fails the job")
    parser.add_argument("--metrics", action="store_true",
                        help="collect a repro.obs metrics registry in "
                             "every job and emit its snapshot into the "
                             "event stream (aggregate with `repro "
                             "stats`)")


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--benchmarks", required=True,
                        help="comma-separated benchmark names")
    parser.add_argument("--instructions", type=int,
                        default=DEFAULT_INSTRUCTIONS,
                        help="instructions per benchmark")
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reliability-aware scheduling on heterogeneous "
                    "multicores (HPCA 2017 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run one workload")
    _add_machine_arguments(run)
    _add_workload_arguments(run)
    run.add_argument("--scheduler", default="reliability",
                     choices=("random", "performance", "reliability",
                              "modes"))
    run.add_argument("--rob-only", action="store_true",
                     help="use the 296-byte ROB-only counters")
    run.add_argument("--power", action="store_true",
                     help="include power estimates")
    run.add_argument("--gantt", action="store_true",
                     help="draw an ASCII schedule chart")
    run.add_argument("--profile", action="store_true",
                     help="collect and print the run's span tree and "
                          "metrics registry (repro.obs)")
    run.add_argument("--obs-out", default=None, metavar="FILE",
                     help="write the run's metrics snapshot and span "
                          "tree as JSON (render with `repro trace "
                          "--spans FILE`)")
    run.set_defaults(func=commands.cmd_run)

    compare = subparsers.add_parser("compare",
                                    help="compare the three schedulers")
    _add_machine_arguments(compare)
    _add_workload_arguments(compare)
    compare.set_defaults(func=commands.cmd_compare)

    sweep = subparsers.add_parser("sweep", help="36-workload sweep")
    _add_machine_arguments(sweep)
    sweep.add_argument("--programs", type=int, default=4, choices=(2, 4, 8))
    sweep.add_argument("--instructions", type=int,
                       default=DEFAULT_INSTRUCTIONS)
    sweep.add_argument("--workload-seed", type=int, default=42)
    sweep.add_argument("--verbose", action="store_true")
    sweep.add_argument("--store", default=None, metavar="DIR",
                       help="persist completed results in DIR (one "
                            "atomically-written file per run); with "
                            "--event-log, an interrupted sweep can be "
                            "finished with `repro resume`")
    sweep.add_argument("--modes", action="store_true",
                       help="also run the protection-mode-aware "
                            "scheduler (placement x none/DMR/checkpoint "
                            "search) and report mode usage plus the "
                            "uncore-extended per-component SSER "
                            "breakdown")
    _add_runtime_arguments(sweep)
    sweep.add_argument("--spans", action="store_true",
                       help="collect per-job span trees as "
                            "span_snapshot events, grafted into a "
                            "campaign-wide span forest (render with "
                            "`repro stats --spans`)")
    sweep.add_argument("--status-socket", default=None, metavar="PATH",
                       help="serve live progress (done/failed/queued, "
                            "per-worker done/failed, runs/s, ETA) and "
                            "the metrics so far on a UNIX socket "
                            "speaking the `repro serve` framing (read "
                            "with `repro top`)")
    sweep.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-job wall-clock timeout; the worker "
                            "of a job that overruns it is killed, and "
                            "the job fails and dumps a postmortem "
                            "bundle")
    sweep.add_argument("--failures", default="fail-fast",
                       choices=("fail-fast", "collect"),
                       help="fail-fast: kill the workers at the first "
                            "failure and cancel the rest (default); "
                            "collect: report failures in the job table "
                            "and exit 1")
    sweep.add_argument("--inject-fail", default=None, metavar="INDEX:N",
                       help="chaos drill: fail job INDEX for its first "
                            "N attempts (repeatable as a comma list, "
                            "e.g. 3:99,7:1)")
    sweep.add_argument("--inject-sleep", default=None,
                       metavar="INDEX:SECONDS",
                       help="chaos drill: stall job INDEX by SECONDS "
                            "per attempt (comma list; pair with "
                            "--timeout to force timeout postmortems)")
    sweep.set_defaults(func=commands.cmd_sweep)

    resume = subparsers.add_parser(
        "resume",
        help="finish an interrupted campaign from its event log",
    )
    resume.add_argument("path", help="JSONL event log of the interrupted "
                                     "campaign (written with --event-log)")
    resume.add_argument("--store", default=None, metavar="DIR",
                        help="result-store directory (default: the one "
                             "recorded in the log's campaign plan)")
    resume.add_argument("--verbose", action="store_true")
    resume.add_argument("--jobs", type=int, default=None,
                        help="worker processes for parallel execution "
                             "(default: the worker count recorded in "
                             "the log's plan, else the REPRO_JOBS env "
                             "var, else 1)")
    resume.add_argument("--event-log", default=None, metavar="FILE",
                        help="append the resumed run's events to FILE "
                             "(default: the resumed log itself)")
    resume.add_argument("--check", action="store_true",
                        help="validate every run against the paper "
                             "invariants (repro.check)")
    resume.set_defaults(func=commands.cmd_resume)

    avf = subparsers.add_parser("avf", help="suite AVF spectrum")
    avf.add_argument("--chart", action="store_true",
                     help="draw an ASCII bar chart")
    avf.set_defaults(func=commands.cmd_avf)

    oracle = subparsers.add_parser("oracle",
                                   help="static-schedule enumeration")
    _add_machine_arguments(oracle)
    _add_workload_arguments(oracle)
    oracle.set_defaults(func=commands.cmd_oracle)

    workloads = subparsers.add_parser("workloads",
                                      help="list canonical workload mixes")
    workloads.add_argument("--programs", type=int, default=4,
                           choices=(2, 4, 8))
    workloads.add_argument("--workload-seed", type=int, default=42)
    workloads.set_defaults(func=commands.cmd_workloads)

    trace = subparsers.add_parser("trace",
                                  help="generate and inspect a trace, "
                                       "or render a saved span tree")
    trace.add_argument("benchmark", nargs="?", default=None)
    trace.add_argument("--length", type=int, default=50_000)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--simulate", action="store_true",
                       help="run the trace through both pipeline models")
    trace.add_argument("--spans", default=None, metavar="FILE",
                       help="render a span tree saved with `repro run "
                            "--obs-out` instead of generating a trace")
    trace.set_defaults(func=commands.cmd_trace)

    cost = subparsers.add_parser("cost", help="counter hardware cost")
    cost.set_defaults(func=commands.cmd_cost)

    check = subparsers.add_parser(
        "check",
        help="paper-invariant fuzzing and golden regression corpus",
    )
    check.add_argument("--seed", type=int, default=0,
                       help="differential-fuzzer seed (same seed, "
                            "same findings)")
    check.add_argument("--model-cases", type=int, default=2,
                       help="trace-driven vs mechanistic cross-checks")
    check.add_argument("--run-cases", type=int, default=3,
                       help="randomized multicore runs to validate")
    check.add_argument("--stack-cases", type=int, default=2,
                       help="isolated structure-stack conservation cases")
    check.add_argument("--kernel-cases", type=int, default=2,
                       help="vectorized-kernel vs reference equivalence "
                            "cases")
    check.add_argument("--decision-cases", type=int, default=2,
                       help="scheduler decision-trace replay/consistency "
                            "cases")
    check.add_argument("--resume-cases", type=int, default=2,
                       help="interrupt-and-resume equivalence cases "
                            "(1-4 workers, a random log cut, store "
                            "corruption)")
    check.add_argument("--service-cases", type=int, default=2,
                       help="open-system serial-vs-parallel feed "
                            "equivalence cases")
    check.add_argument("--mode-cases", type=int, default=2,
                       help="protection-mode scheduler cases: mode "
                            "model conservation, checker-slot "
                            "legality, trace replay, and mode=none "
                            "equivalence vs the placement-only "
                            "scheduler")
    check.add_argument("--golden-dir", default="tests/golden",
                       help="golden regression corpus directory")
    check.add_argument("--update-goldens", action="store_true",
                       help="regenerate the golden corpus instead of "
                            "comparing against it")
    check.add_argument("--skip-fuzz", action="store_true",
                       help="skip the differential fuzzer")
    check.add_argument("--skip-goldens", action="store_true",
                       help="skip the golden corpus comparison")
    check.set_defaults(func=commands.cmd_check)

    bench = subparsers.add_parser(
        "bench",
        help="simulation hot-path performance benchmarks",
    )
    bench.add_argument("--quick", action="store_true",
                       help="smaller inputs, single repeat (for CI)")
    bench.add_argument("--output", default="BENCH_PERF.json",
                       help="machine-readable report path")
    bench.add_argument("--min-ooo-speedup", type=float, default=None,
                       help="fail unless the OoO kernel beats its "
                            "in-process straight-line reference by "
                            "this factor")
    bench.add_argument("--max-disabled-overhead", type=float, default=None,
                       help="fail if dormant observability hooks cost "
                            "more than this fraction on the OoO kernel "
                            "path (e.g. 0.03 = 3%%)")
    bench.add_argument("--min-shard-speedup", type=float, default=None,
                       help="fail unless the bench's shard row, a "
                            "sweep on 2 engine workers, beats the "
                            "in-process run by this factor in runs/s")
    bench.set_defaults(func=commands.cmd_bench)

    figure = subparsers.add_parser(
        "figure", help="render an evaluation figure as an ASCII chart"
    )
    figure.add_argument("id", choices=("fig06", "fig07", "fig12"))
    figure.add_argument("--machine", default="2B2S")
    figure.add_argument("--small-frequency", type=float, default=None)
    figure.add_argument("--programs", type=int, default=4, choices=(2, 4, 8))
    figure.add_argument("--instructions", type=int,
                        default=DEFAULT_INSTRUCTIONS)
    figure.add_argument("--cache-dir", default=".repro_cache/figures",
                        help="campaign cache directory")
    figure.add_argument("--verbose", action="store_true")
    _add_runtime_arguments(figure)
    figure.set_defaults(func=commands.cmd_figure)

    events = subparsers.add_parser(
        "events", help="replay a JSONL campaign event log"
    )
    events.add_argument("path", nargs="+",
                        help="event log(s) written with --event-log; "
                             "several (e.g. per-shard logs) merge "
                             "deterministically")
    events.set_defaults(func=commands.cmd_events)

    stats = subparsers.add_parser(
        "stats", help="aggregate metrics snapshots from an event log"
    )
    stats.add_argument("path", nargs="+",
                       help="event log(s) written with --event-log "
                            "and --metrics; several merge "
                            "deterministically before aggregation")
    stats.add_argument("--csv", default=None, metavar="FILE",
                       help="also write the merged registry as CSV")
    stats.add_argument("--openmetrics", action="store_true",
                       help="print the merged registry as an "
                            "OpenMetrics text exposition instead of a "
                            "table (deterministic: the same logs "
                            "print the same bytes)")
    stats.add_argument("--spans", action="store_true",
                       help="also merge span_snapshot events into a "
                            "fleet-wide span forest and render it")
    stats.set_defaults(func=commands.cmd_stats)

    explain = subparsers.add_parser(
        "explain",
        help="record, render and validate a scheduler decision trace",
    )
    _add_machine_arguments(explain)
    explain.add_argument("--benchmarks",
                         default="soplex,milc,namd,povray",
                         help="comma-separated benchmark names (one per "
                              "core)")
    explain.add_argument("--instructions", type=int,
                         default=DEFAULT_INSTRUCTIONS,
                         help="instructions per benchmark")
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument("--scheduler", default="reliability",
                         choices=("performance", "reliability",
                                  "constrained", "modes"))
    explain.add_argument("--max-stp-loss", type=float, default=0.05,
                         help="STP-loss bound for the constrained "
                              "scheduler")
    explain.add_argument("--max-quanta", type=int, default=30,
                         help="quanta to render (the full trace is "
                              "always validated)")
    explain.add_argument("--json", default=None, metavar="FILE",
                         help="also write the trace as JSONL (replay "
                              "with --replay)")
    explain.add_argument("--replay", default=None, metavar="FILE",
                         help="render and validate a JSONL trace "
                              "instead of running a simulation")
    explain.add_argument("--schema", action="store_true",
                         help="print the decision-trace schema and exit")
    explain.set_defaults(func=commands.cmd_explain)

    serve = subparsers.add_parser(
        "serve",
        help="interactive open-system scheduler service (JSON lines "
             "over stdin/stdout or a unix socket)",
    )
    _add_machine_arguments(serve)
    serve.add_argument("--scheduler", default="reliability",
                       choices=("performance", "reliability"),
                       help="online placement policy")
    serve.add_argument("--admission", default="fifo",
                       choices=("fifo", "sser"),
                       help="admission-queue ordering policy")
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="admission queue capacity; arrivals beyond "
                            "it are shed")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="service-wide start deadline (SLA): queued "
                            "jobs not started in time are shed")
    serve.add_argument("--instructions", type=int, default=1_000_000,
                       help="default instructions for submitted jobs")
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="serve a unix-domain socket at PATH instead "
                            "of stdin/stdout")
    serve.add_argument("--event-feed", default=None, metavar="FILE",
                       help="stream the JSONL service event feed "
                            "(arrive/shed/start/migrate/depart) to FILE")
    serve.set_defaults(func=commands.cmd_serve)

    load = subparsers.add_parser(
        "load",
        help="open-system load generator: queueing delay vs SSER",
    )
    _add_machine_arguments(load)
    load.add_argument("--arrivals", type=int, default=200,
                      help="jobs per arrival-rate point")
    load.add_argument("--seed", type=int, default=0,
                      help="arrival-stream seed (same seed, same feed)")
    load.add_argument("--rates", default="400",
                      help="comma-separated arrival rates in jobs/s")
    load.add_argument("--process", default="poisson",
                      choices=("poisson", "bursty", "diurnal"),
                      help="arrival process")
    load.add_argument("--scheduler", default="reliability",
                      choices=("performance", "reliability"))
    load.add_argument("--admission", default="fifo",
                      choices=("fifo", "sser"))
    load.add_argument("--queue-limit", type=int, default=16)
    load.add_argument("--deadline", type=float, default=None,
                      metavar="SECONDS",
                      help="service-wide start deadline (SLA)")
    load.add_argument("--instructions", type=int, default=1_000_000,
                      help="instructions per arriving job")
    load.add_argument("--jobs", type=int, default=None,
                      help="worker processes for load points "
                           "(default: REPRO_JOBS, else 1)")
    load.add_argument("--event-feed", default=None, metavar="FILE",
                      help="append every point's JSONL event feed to "
                           "FILE")
    load.add_argument("--digest", action="store_true",
                      help="print each point's event-feed sha256 digest")
    load.add_argument("--min-shed-rate", type=float, default=None,
                      help="fail unless some point sheds at least this "
                           "fraction of arrivals")
    load.add_argument("--timeline", action="store_true",
                      help="print a per-window operational timeline for "
                           "each point (queue depth, shed rate, "
                           "p50/p95 start latency)")
    load.add_argument("--timeline-windows", type=int, default=12,
                      metavar="N",
                      help="windows in the --timeline view (default 12)")
    load.set_defaults(func=commands.cmd_load)

    postmortem = subparsers.add_parser(
        "postmortem",
        help="render crash flight-recorder bundles from a result store",
    )
    postmortem.add_argument("key", nargs="?", default=None,
                            help="run key (or unique prefix) of the "
                                 "bundle to render; omit with --list to "
                                 "enumerate")
    postmortem.add_argument("--store", required=True, metavar="DIR",
                            help="result-store directory holding the "
                                 "postmortems/ bundles")
    postmortem.add_argument("--list", action="store_true",
                            help="list available bundles instead of "
                                 "rendering one")
    postmortem.add_argument("--json", action="store_true",
                            help="print the raw bundle JSON instead of "
                                 "the rendered view")
    postmortem.set_defaults(func=commands.cmd_postmortem)

    top = subparsers.add_parser(
        "top",
        help="live fleet view over a `repro sweep --status-socket` "
             "socket",
    )
    top.add_argument("socket", help="UNIX socket path served by "
                                    "`repro sweep --status-socket`")
    top.add_argument("--once", action="store_true",
                     help="print one snapshot and exit (for scripts "
                          "and CI)")
    top.add_argument("--interval", type=float, default=1.0,
                     metavar="SECONDS",
                     help="poll interval (default 1s)")
    top.add_argument("--openmetrics", action="store_true",
                     help="print the socket's OpenMetrics exposition "
                          "({\"op\": \"metrics\"}) instead of the "
                          "fleet table")
    top.set_defaults(func=commands.cmd_top)

    inject = subparsers.add_parser(
        "inject", help="fault-injection campaign vs ACE counting"
    )
    inject.add_argument("benchmark")
    inject.add_argument("--length", type=int, default=20_000,
                        help="trace length in instructions")
    inject.add_argument("--trials", type=int, default=20_000,
                        help="bit flips to inject")
    inject.add_argument("--seed", type=int, default=0)
    inject.set_defaults(func=commands.cmd_inject)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
