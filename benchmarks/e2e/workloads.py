"""The benchmark's workloads: seeded inputs, timed calls, checked outputs.

Each workload has a ``prepare`` step that imports ``repro`` and builds
its inputs from the seed, and a ``measure`` step that runs *rounds* of
calls into the public API until the time budget is spent.  Only those
calls are timed.  Outputs are checked with ``repro.check`` and hashed
outside the timed blocks.

Every ``measure`` takes ``min_rounds`` (rounds to run even past the
budget), ``first_round`` (index of the first round, so a second
measurement continues the sequence) and ``root`` (see :class:`Meter`).

Host time is normalized to a reference host speed.  On a shared host
the speed can change by more than half within seconds, which would
swamp the changes the benchmark must detect.  While a :class:`Meter`
runs, a ``SIGALRM`` handler times a tiny fixed pure-Python loop
(:func:`speed_sample`) every ``SAMPLE_PERIOD_S``; the meter's clock
advances by each interval's raw seconds times
``(SAMPLE_REF_S / loop seconds) ** SENSITIVITY``, and excludes the time
spent sampling.  The loop runs no ``repro`` code, so a change to the
program cannot move it.

Measured on a 2-vCPU shared VM (Xeon, 2.1 GHz): the host flips
between a fast and a slow state in which the loop takes about 1.8
times as long, and the program about 1.55 times.  Fitting log call
time against log loop time over 25-50 repeats of one identical call
gave a slope of 0.75-0.77 for a fig06 run, a service load point and a
trace-driven run alike (0.69 for a fleet round), hence
``SENSITIVITY``.  Repeats of one trace-driven call spread by 15 % raw
(interquartile range over median), 14 % when scaled by loops timed
between calls, and 3.5 % on this clock.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import importlib
import json
import math
import multiprocessing
import resource
import shutil
import signal
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

#: Wall seconds between host-speed samples.
SAMPLE_PERIOD_S = 0.02

#: Sample-loop time on the reference host; normalized times read as
#: seconds on a host where :func:`speed_sample` takes this long.
SAMPLE_REF_S = 0.0003

#: Exponent of the speed correction (see the module docstring).
SENSITIVITY = 0.75

#: Where traced runs write span files and fleet rounds keep their stores
#: while they run (ignored by git).
OUT = Path(__file__).resolve().parent / "out"


@dataclass
class _Point:
    x: float
    y: float


def speed_sample() -> float:
    """Seconds taken by a fixed dict/float/allocation loop (~0.3 ms).

    The garbage collector is off during the loop so the size of the
    program's heap cannot change the reading.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[int, float] = {}
        acc = 0.0
        for i in range(600):
            slot = i & 63
            table[slot] = table.get(slot, 0.0) + i * 0.5
            point = _Point(acc, i * 0.25)
            acc += math.sqrt(i) * point.y / (1.0 + point.x * 1e-12)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _speed_factor() -> float:
    return (SAMPLE_REF_S / speed_sample()) ** SENSITIVITY


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    return _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)


def peak_rss_mb() -> float:
    """Peak resident set size of this process or any reaped child."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


class Meter:
    """A host-speed-normalized clock, and the timed blocks read from it.

    Use it as a context manager on the main thread: the speed sampler
    runs from entry to exit.  ``root`` (optional) is a context-manager
    factory entered around each block; the layer timer uses it to
    attribute the block's time.
    """

    def __init__(self, root: Callable[[], Any] | None = None):
        self.root = root
        #: (normalized seconds, simulated quanta) per operation.
        self.ops: list[tuple[float, int]] = []
        self.busy_seconds = 0.0
        self.raw_busy_seconds = 0.0
        self.cpu_seconds = 0.0
        self._normalized = 0.0  # clock reading at the last sample
        self._factor = 1.0      # speed factor of the last sample
        self._samples = 0
        self._sampling = 0.0    # raw seconds spent sampling
        self._previous: Any = None

    def __enter__(self) -> "Meter":
        self._factor = _speed_factor()
        self.started = self._mark = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum: int, frame: object) -> None:
        start = time.perf_counter()
        factor = _speed_factor()
        self._normalized += (start - self._mark) * (self._factor + factor) / 2
        self._factor = factor
        self._mark = time.perf_counter()
        self._sampling += self._mark - start
        self._samples += 1

    def clock(self) -> tuple[float, float]:
        """``(normalized, raw)`` seconds since entry, sampling excluded."""
        while True:
            samples = self._samples
            now = time.perf_counter()
            normalized = self._normalized + (now - self._mark) * self._factor
            raw = now - self.started - self._sampling
            if samples == self._samples:  # no sample landed in between
                return normalized, raw

    def now(self) -> float:
        """Normalized seconds since entry; time operations with it."""
        return self.clock()[0]

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    @contextlib.contextmanager
    def block(self) -> Iterator[list[tuple[float, int]]]:
        """Time one block.  Append ``(normalized seconds, quanta)`` per
        operation to the list it yields."""
        ops: list[tuple[float, int]] = []
        cpu0, sampling0 = cpu_seconds(), self._sampling
        normalized0, raw0 = self.clock()
        if self.root is None:
            yield ops
        else:
            with self.root():
                yield ops
        normalized1, raw1 = self.clock()
        cpu = cpu_seconds() - cpu0 - (self._sampling - sampling0)
        wall = raw1 - raw0
        self.raw_busy_seconds += wall
        self.busy_seconds += normalized1 - normalized0
        self.cpu_seconds += cpu * (normalized1 - normalized0) / wall
        self.ops.extend(ops)


@dataclass
class Outcome:
    """What one workload measurement did.

    Attributes:
        rounds: rounds completed.
        failed: failed operations plus invariant violations.
        problems: one line per failure or violation.
        ops: (normalized host seconds, simulated quanta) per operation.
        busy_seconds / raw_busy_seconds / cpu_seconds: timed blocks'
            normalized and raw host time, and normalized CPU time of
            this process and its reaped children.
        quanta / instructions: simulated scheduling quanta and
            instructions the timed calls produced.
        digests: output digests, in production order.
        extra: workload-specific per-layer values.
    """

    rounds: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    ops: list[tuple[float, int]] = field(default_factory=list)
    busy_seconds: float = 0.0
    raw_busy_seconds: float = 0.0
    cpu_seconds: float = 0.0
    quanta: int = 0
    instructions: int = 0
    digests: list[str] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)

    def absorb(self, meter: Meter) -> "Outcome":
        self.ops = meter.ops
        self.busy_seconds = meter.busy_seconds
        self.raw_busy_seconds = meter.raw_busy_seconds
        self.cpu_seconds = meter.cpu_seconds
        return self

    def violation(self, text: str) -> None:
        self.failed += 1
        self.problems.append(text)

    def add_result(self, result, label: str) -> None:
        """Count a RunResult's simulated work and check its invariants."""
        from repro.check import check_run

        self.quanta += result.quanta
        self.instructions += sum(app.instructions for app in result.apps)
        for violation in check_run(result, label=label).errors:
            self.violation(violation.format())


def _sha(data: Any) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def result_digest(result) -> str:
    """Digest of one RunResult in the repository's JSON codec."""
    from repro.sim.serialize import run_result_to_dict

    return _sha(run_result_to_dict(result))


def _preload(*modules: str) -> None:
    """Import what ``measure`` will use, so set-up pays for it."""
    for module in ("repro.check", "repro.sim.serialize") + modules:
        importlib.import_module(module)


def _keep_going(meter: Meter, outcome: Outcome, seconds: float,
                min_rounds: int, cycle: int = 1) -> bool:
    """Whether to run another round.  A run ends only after a whole
    ``cycle`` of rounds, so every run weighs the cycle's rounds alike."""
    return (outcome.rounds < min_rounds or outcome.rounds % cycle != 0
            or meter.elapsed() < seconds)


def _interleave_categories(items) -> list:
    """Reorder ``generate_workloads`` output (six mixes per category,
    category by category) so the categories alternate."""
    items = list(items)
    order = sorted(range(len(items)), key=lambda i: (i % 6, i // 6))
    return [items[i] for i in order]


# -- paper_fig06 ------------------------------------------------------------


def prepare_paper_fig06(seed: int, *, instructions: int | None = None,
                        mixes: int = 36) -> dict:
    """The fig06 campaign on 2B2S: ``mixes`` workload mixes of
    ``generate_workloads(4, seed=42+seed)`` under the three schedulers
    at ``instructions`` per application (``None``: the paper's 1 B).

    Runs are ordered so any prefix is balanced: mixes interleave the
    six categories, and each pass over the mixes rotates which
    scheduler a mix runs under, so three passes cover every run.
    """
    from repro.config.machines import STANDARD_MACHINES
    from repro.runtime.engine import ExecutionEngine
    from repro.runtime.retry import FailurePolicy
    from repro.sim.experiment import SCHEDULER_NAMES, sweep_specs
    from repro.workloads.mixes import generate_workloads

    _preload()
    machine = STANDARD_MACHINES["2B2S"]()
    chosen = generate_workloads(4, seed=42 + seed)[:mixes]
    specs, labels = sweep_specs(
        machine, chosen, SCHEDULER_NAMES, instructions=instructions
    )
    count = len(SCHEDULER_NAMES)
    order = [
        count * mix + (position + rotation) % count
        for rotation in range(count)
        for position, mix in enumerate(
            _interleave_categories(range(len(chosen)))
        )
    ]
    return {
        "machine": machine,
        "specs": [specs[i] for i in order],
        "labels": [labels[i] for i in order],
        "engine": ExecutionEngine(jobs=1, failure_policy=FailurePolicy.COLLECT),
    }


def measure_paper_fig06(inputs: dict, seconds: float, *, min_rounds: int = 1,
                        first_round: int = 0, root=None) -> Outcome:
    """One round, and one operation, is one run:
    ``ExecutionEngine.run_many([spec])``, the path
    ``repro.sim.experiment.sweep`` takes with ``jobs=1``."""
    outcome = Outcome()
    specs, labels = inputs["specs"], inputs["labels"]
    engine, machine = inputs["engine"], inputs["machine"]
    with Meter(root) as meter:
        while _keep_going(meter, outcome, seconds, min_rounds):
            index = (first_round + outcome.rounds) % len(specs)
            label = labels[index]
            with meter.block() as ops:
                start = meter.now()
                report = engine.run_many(
                    [specs[index]], machines=machine, labels=[label]
                )
                result = report.results[0]
                ops.append((meter.now() - start, result.quanta if result else 0))
            outcome.rounds += 1
            if result is None:
                outcome.violation(f"{label}: {report.failures[0].error}")
                continue
            outcome.add_result(result, label)
            outcome.digests.append(result_digest(result))
    return outcome.absorb(meter)


# -- service_open ------------------------------------------------------------

#: Poisson arrival rates (jobs/s): below, near and over saturation.
SERVICE_RATES = (400.0, 800.0, 2000.0)


def prepare_service_open(seed: int, *, arrivals: int = 1000,
                         instructions: int = 5_000_000) -> dict:
    """OpenSystem on 2B2S, reliability placer, fifo admission, queue 16;
    ``arrivals`` jobs of ``instructions`` each per load point."""
    from repro.config.machines import STANDARD_MACHINES
    from repro.service import ServiceConfig, service_benchmark_pool

    _preload()
    config = ServiceConfig(
        machine=STANDARD_MACHINES["2B2S"](),
        scheduler="reliability",
        admission="fifo",
        queue_capacity=16,
    )
    return {
        "seed": seed,
        "config": config,
        "pool": service_benchmark_pool(),
        "arrivals": arrivals,
        "instructions": instructions,
    }


def measure_service_open(inputs: dict, seconds: float, *, min_rounds: int = 1,
                         first_round: int = 0, root=None) -> Outcome:
    """One round is one load point: a fresh OpenSystem fed a Poisson
    stream, precomputed outside the timed blocks, stepped until
    ``drained()``; ``run()`` then returns the result.  Each ``step()``
    is one operation of one quantum.  Rates cycle through
    :data:`SERVICE_RATES`; the arrival seed advances every cycle."""
    from repro.check import check_service
    from repro.service import OpenSystem, PoissonArrivals, ServiceFeed

    outcome = Outcome()
    shed = arrived = 0
    with Meter(root) as meter:
        while _keep_going(meter, outcome, seconds, min_rounds,
                          len(SERVICE_RATES)):
            cycle, step = divmod(first_round + outcome.rounds,
                                 len(SERVICE_RATES))
            stream = PoissonArrivals(
                SERVICE_RATES[step],
                inputs["pool"],
                seed=inputs["seed"] * 1000 + cycle,
                instructions=inputs["instructions"],
            ).stream(inputs["arrivals"])
            feed = ServiceFeed()
            with meter.block() as ops:
                system = OpenSystem(inputs["config"], feed=feed)
                system.enqueue_arrivals(stream)
                while not system.drained():
                    start = meter.now()
                    system.step()
                    ops.append((meter.now() - start, 1))
                result = system.run()
            outcome.rounds += 1
            outcome.quanta += result.quanta
            outcome.instructions += result.completed * inputs["instructions"]
            shed += result.shed
            arrived += result.arrived
            label = f"rate {SERVICE_RATES[step]:g}/s cycle {cycle}"
            for violation in check_service(result, label=label).errors:
                outcome.violation(violation.format())
            outcome.digests.append(feed.digest()[:16])
    outcome.extra["service.shed_frac"] = shed / arrived if arrived else 0.0
    return outcome.absorb(meter)


# -- fleet_2w ----------------------------------------------------------------

FLEET_SCHEDULERS = ("random", "performance", "reliability", "modes")
FLEET_WORKERS = 2
#: Mixes per fleet round: 48 specs, so three rounds cover all 144.
FLEET_MIXES_PER_ROUND = 12


def prepare_fleet_2w(seed: int, *, instructions: int = 20_000_000,
                     mixes: int = 36) -> dict:
    """4B4S: ``generate_workloads(8, seed=42+seed)`` under four
    schedulers, the modes scheduler included.  Each round takes the
    next :data:`FLEET_MIXES_PER_ROUND` of the ``mixes`` mixes,
    categories interleaved."""
    from repro.config.machines import STANDARD_MACHINES
    from repro.sim.experiment import sweep_specs
    from repro.workloads.mixes import generate_workloads

    _preload("repro.runtime.events", "repro.runtime.shard",
             "repro.runtime.store")
    machine = STANDARD_MACHINES["4B4S"]()
    chosen = generate_workloads(8, seed=42 + seed)[:mixes]
    chosen = _interleave_categories(chosen)
    rounds = []
    for first in range(0, len(chosen), FLEET_MIXES_PER_ROUND):
        subset = chosen[first:first + FLEET_MIXES_PER_ROUND]
        specs, labels = sweep_specs(
            machine, subset, FLEET_SCHEDULERS, instructions=instructions
        )
        rounds.append({"mixes": subset, "specs": specs, "labels": labels})
    return {"machine": machine, "instructions": instructions, "rounds": rounds}


def _join_children(timeout: float = 30.0) -> None:
    """Wait for the worker processes a pool leaves exiting."""
    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))


def _fleet_pass(name: str, inputs: dict, work: dict, stores: dict,
                round_dir: Path):
    """Run one pass over a round's ``work``; ``(results in spec order,
    per-spec seconds, failed spec indices, cache hits)``."""
    from repro.runtime.events import CallbackSink, JobFinished, JsonlEventSink
    from repro.runtime.shard import ShardCoordinator
    from repro.sim import experiment

    machine, specs, labels = inputs["machine"], work["specs"], work["labels"]
    if name == "pool":
        walls = [0.0] * len(specs)

        def record(event) -> None:
            if isinstance(event, JobFinished):
                walls[event.index] = event.wall_seconds

        sink = JsonlEventSink(round_dir / "pool.jsonl")
        grouped = experiment.sweep(
            machine, work["mixes"], FLEET_SCHEDULERS,
            instructions=inputs["instructions"], jobs=FLEET_WORKERS,
            store=stores["A"], sinks=[sink, CallbackSink(record)],
            metrics=True,
        )
        sink.close()
        _join_children()
        cursors = {key: iter(results) for key, results in grouped.items()}
        results = [next(cursors[spec.scheduler]) for spec in specs]
        failed = [i for i, result in enumerate(results) if result is None]
        return results, walls, failed, 0
    if name == "shard":
        log = JsonlEventSink(round_dir / "shard.jsonl")
        coordinator = ShardCoordinator(FLEET_WORKERS, metrics=True, log_sink=log)
        report = coordinator.run(
            specs, machines=machine, labels=labels, store=stores["B"]
        )
        log.close()
    else:
        report = ShardCoordinator(FLEET_WORKERS).run(
            specs, machines=machine, labels=labels, store=stores["A"]
        )
    walls = [o.wall_seconds for o in report.outcomes]
    failed = [o.index for o in report.failures]
    return report.results, walls, failed, report.cache_hits


def measure_fleet_2w(inputs: dict, seconds: float, *, min_rounds: int = 1,
                     first_round: int = 0, root=None) -> Outcome:
    """One round is three passes over its specs, with fresh stores A and B:

    1. ``pool``: cold, ``sweep(jobs=2, store=A, sinks=[JsonlEventSink],
       metrics=True)`` -- the process-pool path;
    2. ``shard``: cold, ``ShardCoordinator(2, metrics=True,
       log_sink=...)`` into store B;
    3. ``warm``: ``ShardCoordinator(2)`` over store A, every spec a hit.

    Each spec outcome is one operation, timed by the engine that ran
    it; warm hits simulate no quanta.  Both stores must digest equal
    and the warm results must equal the cold ones.  Stores and event
    logs live in a fresh directory under :data:`OUT`, deleted after
    each round and at the end.
    """
    from repro.runtime.store import ResultStore

    outcome = Outcome()
    pass_seconds: dict[str, list[float]] = {"pool": [], "shard": [], "warm": []}
    hits = spec_outcomes = 0
    workers_cpu = 0.0
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="fleet-", dir=OUT))
    try:
        with Meter(root) as meter:
            while _keep_going(meter, outcome, seconds, min_rounds):
                index = first_round + outcome.rounds
                work = inputs["rounds"][index % len(inputs["rounds"])]
                labels = work["labels"]
                round_dir = scratch / f"round{index}"
                stores = {"A": ResultStore(round_dir / "A"),
                          "B": ResultStore(round_dir / "B")}
                digests: dict[str, list[str]] = {}
                for name in ("pool", "shard", "warm"):
                    children0 = _cpu(resource.RUSAGE_CHILDREN)
                    with meter.block() as ops:
                        normalized0, raw0 = meter.clock()
                        results, walls, failed, cached = _fleet_pass(
                            name, inputs, work, stores, round_dir
                        )
                        normalized1, raw1 = meter.clock()
                        # Workers timed the specs on the host clock.
                        scale = (normalized1 - normalized0) / (raw1 - raw0)
                        ops.extend(
                            (wall * scale,
                             0 if name == "warm" or r is None else r.quanta)
                            for wall, r in zip(walls, results)
                        )
                    workers_cpu += scale * (
                        _cpu(resource.RUSAGE_CHILDREN) - children0
                    )
                    pass_seconds[name].append(normalized1 - normalized0)
                    hits += cached
                    spec_outcomes += len(labels)
                    for spec_index in failed:
                        outcome.violation(f"{name}: {labels[spec_index]} failed")
                    digests[name] = [result_digest(r) for r in results if r]
                    if name != "warm":
                        for label, result in zip(labels, results):
                            if result is not None:
                                outcome.add_result(result, f"{name} {label}")
                store_a, store_b = stores["A"].digest(), stores["B"].digest()
                if store_a != store_b:
                    outcome.violation(
                        f"round {index}: pool store {store_a[:16]} != "
                        f"shard store {store_b[:16]}"
                    )
                if not digests["pool"] == digests["shard"] == digests["warm"]:
                    outcome.violation(f"round {index}: pass results differ")
                outcome.digests.append(store_a[:16])
                outcome.rounds += 1
                shutil.rmtree(round_dir, ignore_errors=True)
    finally:
        _join_children()
        shutil.rmtree(scratch, ignore_errors=True)
    outcome.absorb(meter)
    for name, key in (("pool", "runtime.pool.cold_pass_s"),
                      ("shard", "runtime.shard.cold_pass_s"),
                      ("warm", "runtime.shard.warm_pass_s")):
        outcome.extra[key] = statistics.median(pass_seconds[name])
    outcome.extra["runtime.store.hit_frac"] = (
        hits / spec_outcomes if spec_outcomes else 0.0
    )
    outcome.extra["runtime.workers.cpu_us_per_q"] = (
        workers_cpu / max(outcome.quanta, 1) * 1e6
    )
    return outcome


# -- trace_validate ------------------------------------------------------------

TRACE_SCHEDULERS = ("random", "performance", "reliability")


def prepare_trace_validate(seed: int, *, instructions: int = 20_000,
                           compare_instructions: int = 10_000) -> dict:
    """Trace-driven runs of 2B2S mix 0 of the canonical mixes under
    the three schedulers, then the cross-model comparison."""
    from repro.config.machines import STANDARD_MACHINES
    from repro.workloads.mixes import generate_workloads

    _preload("repro.kernels.trace_cache", "repro.sim.tracedriven",
             "repro.validation.crossmodel")
    return {
        "seed": seed,
        "machine": STANDARD_MACHINES["2B2S"](),
        "mix": generate_workloads(4)[0],
        "instructions": instructions,
        "compare_instructions": compare_instructions,
    }


def measure_trace_validate(inputs: dict, seconds: float, *,
                           min_rounds: int = 1, first_round: int = 0,
                           root=None) -> Outcome:
    """One round, and one operation, is one call: ``run_trace_workload``
    under each scheduler, then ``compare_models``, repeating.  Each
    cycle of four calls uses a fresh trace seed, so it generates its
    own traces (the trace cache shares them across the cycle's three
    schedulers) and every multicore run starts with empty modelled
    caches."""
    from repro.kernels import trace_cache
    from repro.sim import tracedriven
    from repro.validation import crossmodel

    outcome = Outcome()
    calls = len(TRACE_SCHEDULERS) + 1
    lookups = {"hits": 0, "misses": 0}

    def count_lookups() -> None:
        stats = trace_cache.cache_stats()
        for key in lookups:
            lookups[key] += stats[key] - base[key]

    base = trace_cache.cache_stats()
    with Meter(root) as meter:
        while _keep_going(meter, outcome, seconds, min_rounds, calls):
            cycle, step = divmod(first_round + outcome.rounds, calls)
            trace_seed = inputs["seed"] * 1000 + cycle
            if step == 0:
                # Earlier cycles' traces can never hit again; dropping
                # them keeps memory independent of how many cycles ran.
                count_lookups()
                trace_cache.clear_cache()
                base = trace_cache.cache_stats()
            with meter.block() as ops:
                start = meter.now()
                if step < len(TRACE_SCHEDULERS):
                    result = tracedriven.run_trace_workload(
                        inputs["machine"], inputs["mix"],
                        TRACE_SCHEDULERS[step],
                        instructions=inputs["instructions"], seed=trace_seed,
                    )
                    ops.append((meter.now() - start, result.quanta))
                else:
                    agreement = crossmodel.compare_models(
                        trace_instructions=inputs["compare_instructions"],
                        seed=trace_seed,
                    )
                    ops.append((meter.now() - start, 0))
            outcome.rounds += 1
            if step < len(TRACE_SCHEDULERS):
                outcome.add_result(result, f"trace {TRACE_SCHEDULERS[step]}")
                outcome.digests.append(result_digest(result))
                continue
            rows = [dataclasses.asdict(row) for row in agreement.rows]
            for row in rows:
                if not all(
                    math.isfinite(row[key]) and row[key] > 0
                    for key in ("trace_ipc", "mechanistic_ipc")
                ):
                    outcome.violation(f"compare_models: bad row {row}")
            outcome.digests.append(_sha(rows))
    count_lookups()
    total = lookups["hits"] + lookups["misses"]
    outcome.extra["kernels.trace_cache.hit_frac"] = (
        lookups["hits"] / total if total else 0.0
    )
    return outcome.absorb(meter)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[..., dict]
    measure: Callable[..., Outcome]
    #: Rounds whose output digests a seed-0 run must reproduce.
    digest_rounds: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_fig06",
            "the paper's fig06 campaign at 1 B instructions: mechanistic "
            "phase analysis and quantum accounting dominate",
            prepare_paper_fig06, measure_paper_fig06, 12,
        ),
        Workload(
            "service_open",
            "open system at three Poisson rates: many short jobs put "
            "admission, placement and per-slice calls on the hot path",
            prepare_service_open, measure_service_open, 3,
        ),
        Workload(
            "fleet_2w",
            "short runs over the process pool and 2 shard workers, cold "
            "and warm: spawn, protocol, store and event-log costs",
            prepare_fleet_2w, measure_fleet_2w, 1,
        ),
        Workload(
            "trace_validate",
            "trace-driven runs and cross-model validation: trace "
            "generation, window kernels and caches; bypasses the "
            "mechanistic model",
            prepare_trace_validate, measure_trace_validate, 4,
        ),
    )
}
