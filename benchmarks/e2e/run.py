"""End-to-end benchmark of the reproduction, with per-layer attribution.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py                      # every workload
    python3 benchmarks/e2e/run.py --workload paper_fig06 --seed 1
    python3 benchmarks/e2e/run.py --workload service_open --trace 1

With one ``--workload`` the benchmark runs in this process: it times
fresh-interpreter set-up, runs the workload for ``--seconds``, checks
and hashes its outputs, prints one ``workload metric value unit`` line
per metric and, last, one JSON object.  ``--trace 1`` reports the
per-layer metrics instead of the end-to-end ones.  Without
``--workload`` (or with several) each workload runs in its own fresh
subprocess, one at a time.

The program under test is ``src/repro`` of the checkout; the benchmark
exits with status 2 when it is missing.  At seed 0 the outputs must
reproduce the digests in ``baseline.json``; a mismatch exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters started per run to time set-up.
SETUP_PROBES = 5

#: Share of a traced run spent untraced first, for the overhead and
#: tail-latency figures.
UNTRACED_SHARE = 1 / 3


def _fail(message: str, code: int = 2) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as error:
        _fail(f"cannot read {path}: {error}")


def _require_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))


# -- set-up timing -------------------------------------------------------------


def _setup_probe(name: str, seed: int) -> None:
    """Body of a probe interpreter: set the workload up on a normalized
    clock, then report ``ready <normalized seconds> <raw seconds>``."""
    with workloads.Meter() as meter:
        workloads.WORKLOADS[name].prepare(seed)
        normalized, elapsed = meter.now(), meter.elapsed()
    print(f"ready {normalized!r} {elapsed!r}", flush=True)


def setup_seconds(name: str, seed: int, probes: int = SETUP_PROBES) -> float:
    """Median seconds from interpreter start to ready.

    The probe normalizes the set-up it times itself, on the CPU it runs
    on; interpreter start and the imports before it stay raw.  On the
    baseline host, whose two vCPUs run at different speeds, sampling
    in this process instead left single probes that ran on the other
    vCPU spread by 17-23 %.
    """
    samples = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as probe:
            line = probe.stdout.readline().split()
            total = time.perf_counter() - start
            probe.stdout.read()
        if probe.returncode != 0 or len(line) != 3 or line[0] != "ready":
            _fail(f"{name}: set-up probe failed (status {probe.returncode})")
        normalized, elapsed = float(line[1]), float(line[2])
        samples.append(total - elapsed + normalized)
    return statistics.median(samples)


# -- metrics -------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(outcome: workloads.Outcome, setup_s: float) -> dict[str, float]:
    quanta = max(outcome.quanta, 1)
    per_quantum = [s / q for s, q in outcome.ops if q > 0]
    return {
        "setup_s": setup_s,
        "quantum_us": outcome.busy_seconds / quanta * 1e6,
        "quantum_us_p50": statistics.median(per_quantum) * 1e6,
        "sim_minst_per_s": outcome.instructions / outcome.busy_seconds / 1e6,
        "cpu_us_per_quantum": outcome.cpu_seconds / quanta * 1e6,
        "peak_rss_mb": workloads.peak_rss_mb(),
    }


def per_layer(
    traced: workloads.Outcome,
    untraced: workloads.Outcome,
    timer: layers.LayerTimer,
    batch: dict[str, float],
) -> dict[str, float]:
    quanta = max(traced.quanta, 1)
    # Layer times are raw; scale them like the traced blocks were.
    scale = traced.busy_seconds / traced.raw_busy_seconds
    values: dict[str, float] = {}
    for layer in timer.layers:
        stats = timer.stats[layer.name]
        values[f"{layer.name}.calls_per_q"] = stats.calls / quanta
        values[f"{layer.name}.busy_us_per_q"] = (
            stats.busy_seconds * scale / quanta * 1e6
        )
        values[f"{layer.name}.self_us_per_q"] = (
            stats.self_seconds * scale / quanta * 1e6
        )
        if layer.repeat_key is not None:
            values[f"{layer.name}.repeat_frac"] = (
                stats.repeats / stats.calls if stats.calls else 0.0
            )
        if layer.size is not None:
            values[f"{layer.name}.{layer.size_name}_per_q"] = stats.size / quanta
    values["obs.unattributed_frac"] = (
        timer.unattributed_seconds / timer.root_seconds
        if timer.root_seconds else 0.0
    )
    untraced_rate = untraced.busy_seconds / max(untraced.quanta, 1)
    traced_rate = traced.busy_seconds / quanta
    values["obs.trace_overhead_frac"] = traced_rate / untraced_rate - 1.0
    op_seconds = [seconds for seconds, _ in untraced.ops]
    values["e2e.ops"] = float(len(op_seconds))
    values["e2e.op_ms_p50"] = statistics.median(op_seconds) * 1e3
    values["e2e.op_ms_p90"] = _percentile(op_seconds, 0.9) * 1e3
    for key in EXTRA_KEYS:
        values[key] = traced.extra.get(key, 0.0)
    values.update(batch)
    return values


#: Workload-specific values reported with the layers (0 where a
#: workload does not produce them).
EXTRA_KEYS = (
    "kernels.trace_cache.hit_frac",
    "runtime.pool.cold_pass_s",
    "runtime.shard.cold_pass_s",
    "runtime.shard.warm_pass_s",
    "runtime.store.hit_frac",
    "runtime.workers.cpu_us_per_q",
    "service.shed_frac",
)

BATCH_KEYS = ("batch.run_workload_batch.busy_s", "batch.speedup_vs_scalar")


def batch_comparison(name: str, inputs: dict,
                     outcome: workloads.Outcome) -> dict[str, float]:
    """Time the batched engine on the fig06 runs the scalar loop made;
    its results must match the scalar engine's."""
    values = dict.fromkeys(BATCH_KEYS, 0.0)
    if name != "paper_fig06":
        return values
    try:
        from repro.batch.sweep import BatchRunRequest, run_workload_batch
    except ImportError:
        return values
    from repro.ace.counters import AceCounterMode

    count = min(outcome.rounds, len(inputs["specs"]))
    requests = [
        BatchRunRequest(
            machine=inputs["machine"],
            benchmarks=spec.benchmarks,
            scheduler=spec.scheduler,
            instructions=spec.instructions,
            seed=spec.seed,
            counter_mode=AceCounterMode(spec.counter_mode),
        )
        for spec in inputs["specs"][:count]
    ]
    with workloads.Meter() as meter, meter.block():
        results = run_workload_batch(requests)
    scalar = outcome.busy_seconds * count / outcome.rounds
    values["batch.run_workload_batch.busy_s"] = meter.busy_seconds
    values["batch.speedup_vs_scalar"] = scalar / meter.busy_seconds
    digests = [workloads.result_digest(r) for r in results]
    if digests != outcome.digests[:count]:
        outcome.violation("batched results differ from the scalar engine's")
    return values


# -- one workload ----------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool, spec: dict,
            baseline: dict, *, sizes: dict | None = None,
            probes: int = SETUP_PROBES, min_rounds: int = 1) -> dict:
    """Set up, measure and check one workload; the result object.

    ``sizes`` overrides the workload's input sizes (``prepare``
    keyword arguments), for tests at toy scale.
    """
    workload = workloads.WORKLOADS[name]
    if seed == 0 and name in baseline.get("digests", {}):
        # Run enough rounds to check the committed digest on any host.
        min_rounds = max(min_rounds, workload.digest_rounds)
    setup_s = setup_seconds(name, seed, probes)
    inputs = workload.prepare(seed, **(sizes or {}))
    if trace:
        untraced = workload.measure(
            inputs, seconds * UNTRACED_SHARE, min_rounds=min_rounds
        )
        timer = layers.LayerTimer(layers.default_layers())
        with timer:
            traced = workload.measure(
                inputs, seconds * (1 - UNTRACED_SHARE),
                min_rounds=min_rounds, first_round=untraced.rounds,
                root=lambda: timer.root(name),
            )
        _write_spans(name, timer)
        for target in timer.absent:
            print(f"# {name}: layer target absent: {target}", file=sys.stderr)
        batch = batch_comparison(name, inputs, untraced)
        metrics = per_layer(traced, untraced, timer, batch)
        declared = spec["per_layer"]
        outcomes = (untraced, traced)
    else:
        outcome = workload.measure(inputs, seconds, min_rounds=min_rounds)
        metrics = end_to_end(outcome, setup_s)
        declared = spec["end_to_end"]
        outcomes = (outcome,)
    problems = [p for o in outcomes for p in o.problems]
    failed = sum(o.failed for o in outcomes)
    mismatch = digest_mismatch(
        name, seed, [d for o in outcomes for d in o.digests], baseline
    )
    if mismatch is not None:
        problems.append(mismatch)
        failed += 1
    for problem in problems:
        print(f"# {name}: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": max(sum(len(o.ops) for o in outcomes), 1),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }


def combined_digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16]


def digest_mismatch(name: str, seed: int, digests: list[str],
                    baseline: dict) -> str | None:
    """At seed 0, the first rounds' outputs must hash to the committed
    digest; the problem line when they do not."""
    rounds = workloads.WORKLOADS[name].digest_rounds
    expected = baseline.get("digests", {}).get(name)
    if seed != 0 or expected is None:
        return None
    if len(digests) < rounds:
        return (f"seed-0 output digest unchecked: {len(digests)} of "
                f"{rounds} rounds ran")
    got = combined_digest(digests[:rounds])
    if got == expected:
        return None
    return f"seed-0 output digest {got} != committed {expected}"


def _write_spans(name: str, timer: layers.LayerTimer) -> None:
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    (workloads.OUT / f"spans.{name}.json").write_text(
        json.dumps(timer.tree(), indent=1) + "\n"
    )


def _print_result(name: str, result: dict) -> None:
    for key, metric in result["metrics"].items():
        print(f"{name} {key} {metric['value']!r} {metric['unit']}")


# -- command line ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    # Benchmark runners pass run_seconds here; compare.py refuses to
    # pair runs measured for different lengths.
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", default=None, metavar="FILE")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _require_program()
    if args.setup_only:
        _setup_probe(args.workload[0], args.seed)
        return 0
    spec = _load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    baseline = json.loads((HERE / "baseline.json").read_text())

    if len(args.workload) == 1:
        name = args.workload[0]
        result = run_one(name, args.seed, seconds, bool(args.trace), spec,
                         baseline)
        runs = [{"workload": name, "seed": args.seed, "trace": args.trace,
                 "seconds": seconds, "result": result}]
        _print_result(name, result)
        print(json.dumps(result))
    else:
        runs = []
        for name in args.workload or list(workloads.WORKLOADS):
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", str(args.seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT,
            )
            lines = child.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                _fail(f"{name}: no result (status {child.returncode})", 1)
            runs.append({"workload": name, "seed": args.seed,
                         "trace": args.trace, "seconds": seconds,
                         "result": result})
        result = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": {
                f"{r['workload']}.{key}": metric
                for r in runs
                for key, metric in r["result"]["metrics"].items()
            },
        }
        print(json.dumps(result))
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
