"""Seeded differential fuzzing across the two model levels.

The repository has two ways to compute everything: the O(1)-per-quantum
mechanistic model used at paper scale, and the O(n) trace-driven
pipeline models used as the detailed reference.  The fuzzer generates
randomized inputs from an explicit seed (no wall-clock anywhere, so a
rerun with the same seed reproduces byte-identical findings) and
cross-checks the levels against each other and against the paper's
invariants:

* **model cases** -- a random benchmark sample is run through
  :func:`repro.validation.crossmodel.compare_models`; the two levels
  must agree in rank (Spearman correlation, the existing
  cross-validation criterion) and every per-benchmark ratio must stay
  inside absolute tolerance gates.
* **run cases** -- a random workload mix runs on a random machine
  under a random scheduler; the result must satisfy every run-level
  invariant, the recorded schedule must be legal, and the isolated
  inputs must satisfy oracle dominance.
* **stack cases** -- a random isolated run's ABC stack must conserve
  ABC across structures.
* **resume cases** -- a campaign is interrupted at a random event
  (optionally with a corrupt store entry, the SIGKILL signature) and
  resumed; the resumed report must be bit-identical to an
  uninterrupted run's.
* **service cases** -- one seeded arrival stream runs through a fresh
  :class:`~repro.service.server.OpenSystem` in-process, then twice as
  a load point on :class:`~repro.runtime.engine.ExecutionEngine`
  workers, through the function ``repro load --jobs N`` maps
  (:func:`~repro.service.load.run_load_task`); each worker's event
  feed must match the in-process feed byte-for-byte
  (``service_feed_determinism``), every result must conserve jobs
  (``open_system_conservation``), and the in-process decision trace
  must chain-validate.
* **shard cases** -- a random campaign runs on a random shard fleet;
  the fleet log's job events, split into per-shard streams and each
  cut at a random point, must replay to one canonical resume state
  however the merge is ordered (``shard_resume_state_canonical``),
  and a sharded resume over the cut streams (optionally with a
  corrupt store entry) must match the uninterrupted fleet
  bit-for-bit (``resume_equivalence``).
* **mode cases** -- a (placement x protection-mode) run must satisfy
  run accounting, schedule legality, checker-slot legality
  (``mode_slot_legality``), mode-model conservation of the accounting
  overlay (``mode_model_conservation``), decision-trace consistency
  including mode-change replay, and -- on fully-occupied machines --
  byte-identity of ``allowed_modes=("none",)`` with the plain
  reliability scheduler (``mode_none_equivalence``).
* **segment cases** -- a random mix runs on a random machine under a
  random scheduler, counter mode and completion mode twice: with the
  mechanistic models, whose slices the segment step consumes as
  columns and replays, and with models that override ``run_cycles``,
  which take the generic path and never replay.  The two serialized
  results must be byte-identical (``segment_path_equivalence``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.check.invariants import (
    CheckReport,
    Finding,
    Severity,
    Violation,
    _apply,
    check_oracle,
    check_run,
    check_schedule,
    check_stack,
    invariant,
)
from repro.config.machines import STANDARD_MACHINES
from repro.cores.mechanistic import MechanisticCoreModel
from repro.validation.crossmodel import ModelAgreement, compare_models
from repro.workloads.spec2006 import BENCHMARK_NAMES

#: Machines the run fuzzer draws from (kept small so cases stay fast).
FUZZ_MACHINES = ("1B1S", "2B2S")

#: Schedulers the run fuzzer draws from.
FUZZ_SCHEDULERS = ("random", "performance", "reliability")

#: Machines the protection-mode fuzzer draws from: 1B3S leaves spare
#: small-core slots so DMR checker allocation is reachable.
MODE_FUZZ_MACHINES = ("1B3S", "2B2S")

#: Machines and schedulers the segment-path fuzzer draws from.
SEGMENT_FUZZ_MACHINES = ("1B1S", "2B2S", "1B3S")
SEGMENT_FUZZ_SCHEDULERS = ("random", "performance", "reliability", "modes")


class _GenericPathModel(MechanisticCoreModel):
    """A mechanistic model that overrides ``run_cycles``, so the
    segment step sends it down the generic path and never replays."""

    def run_cycles(self, app, start_instruction, cycles, env, start_span=None):
        return super().run_cycles(
            app, start_instruction, cycles, env, start_span
        )


@dataclass(frozen=True)
class FuzzGates:
    """Cross-model agreement gates for the differential cases.

    Rank agreement uses the existing
    :mod:`repro.validation.crossmodel` Spearman criterion; the ratio
    bounds are absolute tolerance gates on each benchmark's
    trace-vs-mechanistic IPC and ABC-rate ratios.  The defaults are
    deliberately loose: they are tripwires for gross divergence (a sign
    flip, a unit mix-up, a broken model path), not precision targets.
    """

    min_spearman_ipc: float = 0.30
    min_spearman_abc: float = 0.15
    ipc_ratio_bounds: tuple[float, float] = (0.2, 5.0)
    abc_ratio_bounds: tuple[float, float] = (0.05, 20.0)


@invariant("rank_agreement", subject="differential")
def _rank_agreement(
    agreement: ModelAgreement, gates: FuzzGates
) -> Iterator[Finding]:
    """Trace-driven and mechanistic models agree in rank per core type.

    Scheduling only depends on *relative* per-application performance
    and ACE rates, so rank agreement (Spearman correlation) is the
    cross-model validation criterion.  Gated quantities match the
    repository's validation suite: big-core IPC and ABC, small-core
    IPC.  Small-core ABC is advisory (see
    ``small_abc_rank_agreement``).
    """
    for core_type in ("big", "small"):
        ipc = agreement.spearman_ipc(core_type)
        if not ipc >= gates.min_spearman_ipc:
            yield (
                f"{core_type}-core IPC rank agreement below the gate",
                {"gate": gates.min_spearman_ipc, "spearman_ipc": ipc},
            )
    abc = agreement.spearman_abc("big")
    if not abc >= gates.min_spearman_abc:
        yield (
            "big-core ABC rank agreement below the gate",
            {"gate": gates.min_spearman_abc, "spearman_abc": abc},
        )


@invariant(
    "small_abc_rank_agreement",
    severity=Severity.WARNING,
    subject="differential",
)
def _small_abc_rank_agreement(
    agreement: ModelAgreement, gates: FuzzGates
) -> Iterator[Finding]:
    """Small-core ABC rank agreement is advisory, not gating.

    The in-order pipeline's ACE occupancy is dominated by short,
    similar structure residencies, so its trace-vs-mechanistic ABC
    ranks are noisy on small benchmark samples.  The repository's
    validation suite does not gate this quantity either; a low value
    here is reported as a warning for visibility.
    """
    abc = agreement.spearman_abc("small")
    if not abc >= gates.min_spearman_abc:
        yield (
            "small-core ABC rank agreement below the advisory gate",
            {"gate": gates.min_spearman_abc, "spearman_abc": abc},
        )


@invariant("cross_model_ratio_bounds", subject="differential")
def _cross_model_ratio_bounds(
    agreement: ModelAgreement, gates: FuzzGates
) -> Iterator[Finding]:
    """Per-benchmark trace/mechanistic ratios stay inside the gates."""
    ipc_lo, ipc_hi = gates.ipc_ratio_bounds
    abc_lo, abc_hi = gates.abc_ratio_bounds
    for row in agreement.rows:
        if not ipc_lo <= row.ipc_ratio <= ipc_hi:
            yield (
                f"{row.name} ({row.core_type}) IPC ratio outside "
                f"[{ipc_lo}, {ipc_hi}]",
                {
                    "ipc_ratio": row.ipc_ratio,
                    "mechanistic_ipc": row.mechanistic_ipc,
                    "trace_ipc": row.trace_ipc,
                },
            )
        if not abc_lo <= row.abc_ratio <= abc_hi:
            yield (
                f"{row.name} ({row.core_type}) ABC ratio outside "
                f"[{abc_lo}, {abc_hi}]",
                {
                    "abc_ratio": row.abc_ratio,
                    "mechanistic_abc": row.mechanistic_abc_per_cycle,
                    "trace_abc": row.trace_abc_per_cycle,
                },
            )


def check_agreement(
    agreement: ModelAgreement,
    gates: FuzzGates | None = None,
    *,
    label: str = "differential",
) -> CheckReport:
    """Run the cross-model gates on one agreement sample."""
    gates = gates if gates is not None else FuzzGates()
    return _apply("differential", label, agreement, gates)


class _RecordingScheduler:
    """Delegating scheduler wrapper that records every quantum plan."""

    def __init__(self, inner):
        self.inner = inner
        self.machine = inner.machine
        self.num_apps = inner.num_apps
        self.requires_full_occupancy = getattr(
            inner, "requires_full_occupancy", True
        )
        self.plans_by_quantum: list[list] = []

    def plan_quantum(self, quantum_index: int):
        plans = self.inner.plan_quantum(quantum_index)
        self.plans_by_quantum.append(list(plans))
        return plans

    def observe(self, plan, observations):
        self.inner.observe(plan, observations)


@dataclass(frozen=True)
class FuzzReport:
    """Everything one fuzzing session found.

    The report is a pure function of the seed and case counts: the
    same seed reproduces byte-identical findings.
    """

    seed: int
    reports: tuple[CheckReport, ...]

    @property
    def violations(self):
        return tuple(v for report in self.reports for v in report.violations)

    @property
    def errors(self):
        return tuple(
            v for v in self.violations if v.severity is Severity.ERROR
        )

    @property
    def ok(self) -> bool:
        return not self.errors

    def format(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [
            f"fuzz seed={self.seed}: {len(self.reports)} case(s), "
            f"{len(self.errors)} error(s), "
            f"{len(self.violations) - len(self.errors)} warning(s) "
            f"-- {status}"
        ]
        lines.extend(report.format() for report in self.reports)
        return "\n".join(lines)


def _model_case(
    index: int, rng: np.random.Generator, gates: FuzzGates
) -> CheckReport:
    from repro.workloads.spec2006 import classify_benchmarks

    # Stratify the sample across the AVF classes (two draws per
    # class), like the validation suite's hand-picked sample: a
    # uniform draw can land on a cluster of near-identical
    # benchmarks, where rank agreement is dominated by noise rather
    # than by model fidelity.
    classes = classify_benchmarks()
    sample: list[str] = []
    for cls in ("H", "M", "L"):
        pool = sorted(n for n in BENCHMARK_NAMES if classes[n] == cls)
        picks = rng.choice(len(pool), size=2, replace=False)
        sample.extend(pool[i] for i in sorted(picks.tolist()))
    benchmarks = tuple(sample)
    trace_seed = int(rng.integers(0, 2**16))
    agreement = compare_models(
        benchmarks, trace_instructions=8_000, seed=trace_seed
    )
    label = (
        f"model/{index} seed={trace_seed} "
        f"benchmarks={'+'.join(benchmarks)}"
    )
    return check_agreement(agreement, gates, label=label)


def _run_case(index: int, rng: np.random.Generator) -> CheckReport:
    from repro.ace.counters import AceCounterMode
    from repro.sim.experiment import make_scheduler
    from repro.sim.isolated import isolated_stats
    from repro.sim.multicore import MulticoreSimulation, default_models
    from repro.workloads.spec2006 import benchmark

    machine_name = FUZZ_MACHINES[int(rng.integers(len(FUZZ_MACHINES)))]
    machine = STANDARD_MACHINES[machine_name]()
    scheduler_name = FUZZ_SCHEDULERS[int(rng.integers(len(FUZZ_SCHEDULERS)))]
    picks = rng.choice(
        len(BENCHMARK_NAMES), size=machine.num_cores, replace=False
    )
    names = tuple(BENCHMARK_NAMES[i] for i in sorted(picks.tolist()))
    instructions = int(rng.integers(150_000, 350_000))
    seed = int(rng.integers(0, 2**16))
    label = (
        f"run/{index} {machine_name}/{scheduler_name}/"
        f"{'+'.join(names)}#{seed}x{instructions}"
    )

    profiles = [benchmark(name).scaled(instructions) for name in names]
    scheduler = _RecordingScheduler(
        make_scheduler(scheduler_name, machine, len(profiles), seed)
    )
    result = MulticoreSimulation(
        machine,
        profiles,
        scheduler,
        counter_mode=AceCounterMode.FULL,
    ).run()

    models = default_models(machine)
    stats = [
        isolated_stats(profile, models["big"], models["small"])
        for profile in profiles
    ]
    from repro.check.invariants import merge_reports

    return merge_reports(
        [
            check_run(result, label=label),
            check_schedule(
                scheduler.plans_by_quantum,
                machine,
                len(profiles),
                label=label,
            ),
            check_oracle(stats, machine, label=label),
        ],
        subject=label,
    )


@dataclass(frozen=True)
class KernelComparison:
    """Kernel-vs-reference outputs for one fuzzed window (one model)."""

    model: str  # "ooo" or "inorder"
    kernel: object  # WindowTiming (ooo) or QuantumResult (inorder)
    reference: object
    kernel_cache_state: tuple
    reference_cache_state: tuple


def _cache_state(hierarchy) -> tuple:
    """Hashable snapshot of a hierarchy's state and statistics."""
    return (
        tuple(
            (
                cache.stats.accesses,
                cache.stats.misses,
                cache._clock,
                tuple(tuple(sorted(s.items())) for s in cache._sets),
            )
            for cache in (hierarchy.l1d, hierarchy.l2, hierarchy.l3)
        ),
        hierarchy.l3_accesses,
        hierarchy.dram_accesses,
    )


@invariant("kernel_timing_equivalence", subject="kernel")
def _kernel_timing_equivalence(
    comparison: KernelComparison,
) -> Iterator[Finding]:
    """Vectorized window kernels reproduce the reference exactly.

    The OoO kernel must match the straight-line reference
    element-wise (bit-identical timings); the in-order kernel must
    match timing-derived integers exactly and ACE accounting to
    floating-point rounding (its sums are reassociated).
    """
    k, r = comparison.kernel, comparison.reference
    if comparison.model == "ooo":
        if k.committed != r.committed or k.elapsed_cycles != r.elapsed_cycles:
            yield (
                "OoO kernel commit/elapsed diverges from the reference",
                {
                    "kernel_committed": k.committed,
                    "reference_committed": r.committed,
                    "kernel_elapsed": k.elapsed_cycles,
                    "reference_elapsed": r.elapsed_cycles,
                },
            )
            return
        for field in (
            "classes", "dispatch", "issue", "finish", "commit",
            "latency", "mispredicted",
        ):
            a, b = getattr(k, field), getattr(r, field)
            if not np.array_equal(a, b):
                bad = int(np.nonzero(a != b)[0][0])
                yield (
                    f"OoO kernel {field} diverges from the reference",
                    {
                        "field": field,
                        "first_mismatch": bad,
                        "kernel": float(a[bad]),
                        "reference": float(b[bad]),
                    },
                )
    else:
        if (
            k.instructions != r.instructions
            or k.cycles != r.cycles
            or k.memory_accesses != r.memory_accesses
            or k.l3_accesses != r.l3_accesses
            or k.branch_mispredictions != r.branch_mispredictions
        ):
            yield (
                "in-order kernel counts diverge from the reference",
                {
                    "kernel_instructions": k.instructions,
                    "reference_instructions": r.instructions,
                    "kernel_cycles": k.cycles,
                    "reference_cycles": r.cycles,
                },
            )
            return
        for kind in k.ace_bit_cycles:
            a = k.ace_bit_cycles[kind]
            b = r.ace_bit_cycles[kind]
            if abs(a - b) > 1e-9 * max(abs(a), abs(b), 1.0):
                yield (
                    f"in-order kernel {kind.name} ACE accounting diverges",
                    {"structure": kind.name, "kernel": a, "reference": b},
                )


@invariant("kernel_cache_state_equivalence", subject="kernel")
def _kernel_cache_state_equivalence(
    comparison: KernelComparison,
) -> Iterator[Finding]:
    """Kernel and reference leave identical cache state behind.

    Covers the kernels' walk in program order up to the budget break:
    LRU contents, per-level statistics and hierarchy counters (the
    shared L3's included) must all match after the window, including
    the documented extra access for the first uncommitted instruction.
    """
    if comparison.kernel_cache_state != comparison.reference_cache_state:
        yield (
            f"{comparison.model} kernel cache state diverges from the "
            "reference after the window",
            {"model": comparison.model},
        )


def _kernel_case(index: int, rng: np.random.Generator) -> CheckReport:
    from repro.config import MemoryConfig, big_core_config, small_core_config
    from repro.cores.base import MemoryEnvironment
    from repro.cores.inorder import InOrderCoreModel
    from repro.cores.ooo import OutOfOrderCoreModel
    from repro.cores.tracebase import TraceApplication
    from repro.kernels.reference import (
        reference_inorder_run,
        reference_ooo_window,
    )
    from repro.memory.cache import SetAssociativeCache
    from repro.workloads.generator import generate_trace
    from repro.workloads.spec2006 import benchmark

    name = BENCHMARK_NAMES[int(rng.integers(len(BENCHMARK_NAMES)))]
    instructions = int(rng.integers(4_000, 20_000))
    trace_seed = int(rng.integers(0, 2**16))
    # Tiny budgets exercise the budget break; larger ones the
    # full-window path.  Starts beyond the trace length exercise the
    # wrap-around windowing.
    budget = float(rng.choice([3, 40, 700, 6_000, 60_000]))
    start = int(rng.integers(0, 2 * instructions))
    label = f"kernel/{index} {name}#{trace_seed}x{instructions}@{start}"
    # The DRAM contention and the second window's budget come from a
    # generator of their own, seeded by this case's draws, so the
    # families drawn after this one keep their inputs.
    extra = np.random.default_rng((trace_seed, instructions, start))
    env = MemoryEnvironment(
        dram_latency_multiplier=float(extra.choice([1.0, 1.37, 2.5]))
    )
    second_budget = float(extra.choice([3, 40, 700, 6_000]))

    def machine():
        # One OoO and one in-order model sharing an L3, as in a
        # trace-driven run.
        l3 = SetAssociativeCache(MemoryConfig().l3, "shared-l3")
        return {
            "ooo": OutOfOrderCoreModel(
                big_core_config(), MemoryConfig(), shared_l3=l3
            ),
            "inorder": InOrderCoreModel(
                small_core_config(), MemoryConfig(), shared_l3=l3
            ),
        }

    trace = generate_trace(benchmark(name), instructions, seed=trace_seed)
    kernel_models, reference_models = machine(), machine()
    ak, ar = TraceApplication(trace), TraceApplication(trace)
    positions = {"ooo": start, "inorder": start}
    reports = []
    # Each model's first window, then a second one on the warm caches.
    for window, window_budget in enumerate((budget, second_budget)):
        for model_name in ("ooo", "inorder"):
            mk = kernel_models[model_name]
            mr = reference_models[model_name]
            at = positions[model_name]
            if model_name == "ooo":
                kernel_out = mk.simulate_window(ak, at, window_budget, env)
                reference_out = reference_ooo_window(
                    mr, ar, at, window_budget, env
                )
                positions[model_name] += kernel_out.committed
            else:
                kernel_out = mk.run_cycles(ak, at, window_budget, env)
                reference_out = reference_inorder_run(
                    mr, ar, at, window_budget, env
                )
                positions[model_name] += kernel_out.instructions
            comparison = KernelComparison(
                model=model_name,
                kernel=kernel_out,
                reference=reference_out,
                kernel_cache_state=_cache_state(mk.hierarchy_for(ak)),
                reference_cache_state=_cache_state(mr.hierarchy_for(ar)),
            )
            reports.append(
                _apply(
                    "kernel", f"{label} {model_name} window {window}",
                    comparison,
                )
            )
    from repro.check.invariants import merge_reports

    return merge_reports(reports, subject=label)


def _stack_case(index: int, rng: np.random.Generator) -> CheckReport:
    from repro.config import MemoryConfig, big_core_config
    from repro.cores.mechanistic import MechanisticCoreModel
    from repro.sim.isolated import run_isolated
    from repro.workloads.spec2006 import benchmark

    name = BENCHMARK_NAMES[int(rng.integers(len(BENCHMARK_NAMES)))]
    instructions = int(rng.integers(100_000, 300_000))
    profile = benchmark(name).scaled(instructions)
    model = MechanisticCoreModel(big_core_config(), MemoryConfig())
    result = run_isolated(model, profile)
    label = f"stack/{index} big/{name}x{instructions}"
    return check_stack(result, label=label)


#: Scheduler builders the decision-trace fuzzer draws from: every
#: SamplingScheduler optimizer shape (greedy and exhaustive phases).
DECISION_SCHEDULERS = ("performance", "reliability", "constrained")


def _decision_case(index: int, rng: np.random.Generator) -> CheckReport:
    from repro.ace.counters import AceCounterMode
    from repro.obs.decisions import (
        DecisionTraceRecorder,
        ReplayError,
        replay_trace,
    )
    from repro.sched.constrained import ConstrainedReliabilityScheduler
    from repro.sim.experiment import make_scheduler
    from repro.sim.multicore import MulticoreSimulation
    from repro.workloads.spec2006 import benchmark

    machine_name = FUZZ_MACHINES[int(rng.integers(len(FUZZ_MACHINES)))]
    machine = STANDARD_MACHINES[machine_name]()
    scheduler_name = DECISION_SCHEDULERS[
        int(rng.integers(len(DECISION_SCHEDULERS)))
    ]
    picks = rng.choice(
        len(BENCHMARK_NAMES), size=machine.num_cores, replace=False
    )
    names = tuple(BENCHMARK_NAMES[i] for i in sorted(picks.tolist()))
    instructions = int(rng.integers(150_000, 300_000))
    label = (
        f"decision/{index} {machine_name}/{scheduler_name}/"
        f"{'+'.join(names)}x{instructions}"
    )

    profiles = [benchmark(name).scaled(instructions) for name in names]
    if scheduler_name == "constrained":
        scheduler = ConstrainedReliabilityScheduler(
            machine, len(profiles), max_stp_loss=0.1
        )
    else:
        scheduler = make_scheduler(scheduler_name, machine, len(profiles), 0)
    scheduler.recorder = DecisionTraceRecorder()
    MulticoreSimulation(
        machine, profiles, scheduler, counter_mode=AceCounterMode.FULL
    ).run()
    records = scheduler.recorder.records

    from repro.check.invariants import check_decision_trace

    report = check_decision_trace(records, label=label)
    violations = list(report.violations)
    final = tuple(scheduler._assignment.core_of)
    try:
        replayed = replay_trace(records)
    except ReplayError as error:
        replayed = None
        detail = str(error)
    if replayed != final:
        violations.append(
            Violation(
                invariant="decision_trace_consistency",
                severity=Severity.ERROR,
                subject=label,
                message=(
                    "replaying the trace does not reproduce the "
                    "scheduler's final assignment"
                    if replayed is not None
                    else f"trace replay failed: {detail}"
                ),
            )
        )
    return CheckReport(
        subject=label,
        checked=report.checked,
        violations=tuple(violations),
    )


def _resume_case(index: int, rng: np.random.Generator) -> CheckReport:
    """Interrupt a campaign at a random point, resume it, and demand
    the resumed report match an uninterrupted run's bit-for-bit."""
    import tempfile
    from pathlib import Path

    from repro.check.invariants import check_resume
    from repro.runtime.engine import ExecutionEngine, FaultPlan
    from repro.runtime.events import CallbackSink, CampaignPlan
    from repro.runtime.resume import ResumeState
    from repro.runtime.retry import FailurePolicy
    from repro.sim.campaign import RunSpec

    machine_name = FUZZ_MACHINES[int(rng.integers(len(FUZZ_MACHINES)))]
    machine = STANDARD_MACHINES[machine_name]()
    count = int(rng.integers(3, 6))
    specs = []
    for spec_index in range(count):
        picks = rng.choice(
            len(BENCHMARK_NAMES), size=machine.num_cores, replace=False
        )
        names = tuple(BENCHMARK_NAMES[i] for i in sorted(picks.tolist()))
        scheduler = FUZZ_SCHEDULERS[int(rng.integers(len(FUZZ_SCHEDULERS)))]
        specs.append(
            RunSpec(
                machine_name,
                names,
                scheduler,
                int(rng.integers(60_000, 150_000)),
                seed=spec_index,
            )
        )
    # One job may fail permanently; the same fault plan applies to the
    # interrupted, resumed and baseline runs so their statuses agree.
    fail_index = int(rng.integers(count + 1))  # == count: no failure
    plan = (
        FaultPlan(fail_attempts={fail_index: 99})
        if fail_index < count
        else None
    )
    label = (
        f"resume/{index} {machine_name} x{count} "
        f"fail@{fail_index if plan is not None else '-'}"
    )

    def engine(**kwargs) -> ExecutionEngine:
        return ExecutionEngine(
            jobs=1,
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=plan,
            **kwargs,
        )

    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        events: list = []
        engine(sinks=[CallbackSink(events.append)]).run_many(
            specs, store=tmp / "store"
        )
        # Simulate a SIGKILL: drop a random suffix of the event stream
        # (the plan record survives -- it is emitted at the start).
        plan_at = next(
            i for i, e in enumerate(events) if isinstance(e, CampaignPlan)
        )
        cut = int(rng.integers(plan_at + 1, len(events) + 1))
        state = ResumeState.from_events(events[:cut])
        # Sometimes the kill also left a truncated store entry behind;
        # resume must recompute it, not crash or trust it.
        if state.completed and int(rng.integers(2)):
            keys = sorted(state.completed)
            victim = tmp / "store" / (
                keys[int(rng.integers(len(keys)))] + ".json"
            )
            victim.write_text(victim.read_text()[:25])
        resumed = engine().run_many(specs, resume_from=state)
        full = engine().run_many(specs, store=tmp / "full")
        return check_resume(full, resumed, label=label)


#: Arrival processes and admission policies the service fuzzer draws
#: from.
SERVICE_PROCESSES = ("poisson", "bursty", "diurnal")
SERVICE_ADMISSIONS = ("fifo", "sser")


@invariant("service_feed_determinism", subject="service_feed")
def _service_feed_determinism(
    serial_lines: Sequence[str], parallel_lines: Sequence[str]
) -> Iterator[Finding]:
    """A load point run in a worker process emits the in-process feed.

    The open system advances in virtual time only, so a load point that
    ``repro load --jobs N`` runs on an
    :class:`~repro.runtime.engine.ExecutionEngine` worker must reproduce
    the in-process event stream byte-for-byte -- same arrivals, same
    placements, same sheds, same departures.
    """
    if len(serial_lines) != len(parallel_lines):
        yield (
            "serial and parallel feeds have different event counts",
            {
                "parallel_events": len(parallel_lines),
                "serial_events": len(serial_lines),
            },
        )
    for i, (a, b) in enumerate(zip(serial_lines, parallel_lines)):
        if a != b:
            yield (
                f"feeds diverge at event {i}: {a} != {b}",
                {"event_index": i},
            )
            break


def _service_case(index: int, rng: np.random.Generator) -> CheckReport:
    """Run one arrival stream in-process and twice as a load point on
    engine workers, and demand identical event feeds, conserved job
    accounting, and a chain-valid decision trace."""
    from repro.check.invariants import (
        check_decision_trace,
        check_service,
        merge_reports,
    )
    from repro.obs.decisions import DecisionTraceRecorder
    from repro.runtime.engine import ExecutionEngine
    from repro.service.arrivals import make_process, service_benchmark_pool
    from repro.service.events import ServiceFeed
    from repro.service.load import run_load_task
    from repro.service.server import OpenSystem, ServiceConfig

    machine_name = FUZZ_MACHINES[int(rng.integers(len(FUZZ_MACHINES)))]
    machine = STANDARD_MACHINES[machine_name]()
    process_name = SERVICE_PROCESSES[
        int(rng.integers(len(SERVICE_PROCESSES)))
    ]
    admission = SERVICE_ADMISSIONS[int(rng.integers(len(SERVICE_ADMISSIONS)))]
    rate = float(rng.integers(200, 1_500))
    count = int(rng.integers(10, 25))
    stream_seed = int(rng.integers(0, 2**16))
    instructions = int(rng.integers(150_000, 400_000))
    label = (
        f"service/{index} {machine_name}/{admission}/{process_name}"
        f"@{rate:g}x{count}#{stream_seed}"
    )

    process = make_process(
        process_name,
        rate,
        service_benchmark_pool(),
        seed=stream_seed,
        instructions=instructions,
    )
    config = ServiceConfig(
        machine=machine,
        admission=admission,
        queue_capacity=4,
        deadline_seconds=0.02,
    )

    feed = ServiceFeed()
    recorder = DecisionTraceRecorder()
    system = OpenSystem(config, feed=feed, recorder=recorder)
    system.enqueue_arrivals(process.stream(count))
    result = system.run()
    workers = ExecutionEngine(jobs=2).map_tasks(
        run_load_task, [(config, process, count)] * 2
    )

    reports = [
        check_service(result, label=f"{label} serial"),
        check_decision_trace(recorder.records, label=f"{label} serial"),
    ]
    for k, (point, worker_feed) in enumerate(workers):
        reports.append(
            _apply("service_feed", label, feed.lines, worker_feed.lines)
        )
        reports.append(
            check_service(point.result, label=f"{label} worker {k}")
        )
    return merge_reports(reports, subject=label)


def _shard_case(index: int, rng: np.random.Generator) -> CheckReport:
    """Run a campaign on a random shard fleet, kill it at random cuts
    of its per-shard streams, and demand the replayed resume state is
    canonical under merge reordering and a sharded resume (possibly
    over a corrupted store entry) matches the uninterrupted fleet
    bit-for-bit."""
    import tempfile
    from pathlib import Path

    from repro.check.invariants import (
        check_resume,
        check_shard_resume_states,
        merge_reports,
    )
    from repro.runtime.engine import FaultPlan
    from repro.runtime.events import (
        CampaignPlan,
        JsonlEventSink,
        merge_event_streams,
        read_events,
    )
    from repro.runtime.resume import ResumeState
    from repro.runtime.retry import FailurePolicy
    from repro.runtime.shard import ShardCoordinator
    from repro.sim.campaign import RunSpec

    machine_name = FUZZ_MACHINES[int(rng.integers(len(FUZZ_MACHINES)))]
    machine = STANDARD_MACHINES[machine_name]()
    count = int(rng.integers(3, 6))
    specs = []
    for spec_index in range(count):
        picks = rng.choice(
            len(BENCHMARK_NAMES), size=machine.num_cores, replace=False
        )
        names = tuple(BENCHMARK_NAMES[i] for i in sorted(picks.tolist()))
        scheduler = FUZZ_SCHEDULERS[int(rng.integers(len(FUZZ_SCHEDULERS)))]
        specs.append(
            RunSpec(
                machine_name,
                names,
                scheduler,
                int(rng.integers(60_000, 150_000)),
                seed=spec_index,
            )
        )
    shards = int(rng.integers(2, 5))
    fail_index = int(rng.integers(count + 1))  # == count: no failure
    plan = (
        FaultPlan(fail_attempts={fail_index: 99})
        if fail_index < count
        else None
    )
    label = (
        f"shard/{index} {machine_name} x{count} shards={shards} "
        f"fail@{fail_index if plan is not None else '-'}"
    )

    def coordinator(**kwargs) -> ShardCoordinator:
        return ShardCoordinator(
            shards,
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=plan,
            **kwargs,
        )

    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        log = tmp / "log.jsonl"
        log_sink = JsonlEventSink(log)
        try:
            full = coordinator(log_sink=log_sink).run(
                specs, store=tmp / "store"
            )
        finally:
            log_sink.close()

        # Simulate a fleet SIGKILL: split the fleet log's job events
        # into one stream per shard by job index, each in job-index
        # order (so no draw depends on which worker finished first),
        # and keep each stream only up to an independent random cut.
        # The plan record, written first, survives by construction.
        events = read_events(log)
        plan_event = next(e for e in events if isinstance(e, CampaignPlan))
        job_events = sorted(
            (e for e in events if getattr(e, "index", -1) >= 0),
            key=lambda e: e.index,
        )
        streams = [
            [e for e in job_events if e.index % shards == shard]
            for shard in range(shards)
        ]
        cut_streams = [
            stream[: int(rng.integers(len(stream) + 1))]
            for stream in streams
        ]
        merged = merge_event_streams(cut_streams)
        state = ResumeState.from_events([plan_event] + merged)
        # Permuting the shard completion order must replay to the
        # same canonical state.
        order = rng.permutation(len(cut_streams)).tolist()
        permuted = merge_event_streams([cut_streams[i] for i in order])
        state_permuted = ResumeState.from_events([plan_event] + permuted)
        state_report = check_shard_resume_states(
            state, state_permuted, label=label
        )

        # Sometimes the kill also left a truncated store entry behind;
        # the resumed fleet must recompute it, not crash or trust it.
        if state.completed and int(rng.integers(2)):
            completed = sorted(state.completed)
            victim = tmp / "store" / (
                completed[int(rng.integers(len(completed)))] + ".json"
            )
            victim.write_text(victim.read_text()[:25])
        resumed = coordinator().run(
            specs, resume_from=state, store=tmp / "store"
        )
        resume_report = check_resume(full, resumed, label=label)
    return merge_reports([state_report, resume_report], subject=label)


def _mode_case(index: int, rng: np.random.Generator) -> CheckReport:
    """Fuzz the (placement x protection-mode) scheduler end to end.

    Runs a mode-aware simulation (sometimes with spare cores so DMR
    checker allocation is reachable) and checks run accounting,
    schedule legality, mode/checker slot legality, mode-model
    conservation of the accounting overlay, and decision-trace
    consistency including mode-change replay.  On fully-occupied
    machines it additionally demands that the scheduler restricted to
    ``allowed_modes=("none",)`` reproduces the plain reliability
    scheduler's serialized result byte-for-byte.
    """
    from repro.ace.counters import AceCounterMode
    from repro.check.invariants import (
        check_decision_trace,
        check_mode_none,
        check_mode_outcome,
        check_mode_schedule,
        merge_reports,
    )
    from repro.obs.decisions import DecisionTraceRecorder
    from repro.sched.modes import ModeAwareReliabilityScheduler, apply_modes
    from repro.sched.reliability import ReliabilityScheduler
    from repro.sim.multicore import MulticoreSimulation
    from repro.sim.serialize import run_result_to_dict
    from repro.workloads.spec2006 import benchmark

    machine_name = MODE_FUZZ_MACHINES[
        int(rng.integers(len(MODE_FUZZ_MACHINES)))
    ]
    machine = STANDARD_MACHINES[machine_name]()
    num_apps = machine.num_cores - int(rng.integers(0, 2))
    picks = rng.choice(len(BENCHMARK_NAMES), size=num_apps, replace=False)
    names = tuple(BENCHMARK_NAMES[i] for i in sorted(picks.tolist()))
    instructions = int(rng.integers(4_000_000, 8_000_000))
    label = (
        f"mode/{index} {machine_name}/modes/"
        f"{'+'.join(names)}x{instructions}"
    )

    inner = ModeAwareReliabilityScheduler(machine, num_apps)
    inner.recorder = DecisionTraceRecorder()
    scheduler = _RecordingScheduler(inner)
    result = MulticoreSimulation(
        machine,
        [benchmark(name).scaled(instructions) for name in names],
        scheduler,
        counter_mode=AceCounterMode.FULL,
    ).run()
    schedule = inner.mode_schedule()
    outcome = apply_modes(result, schedule, machine.memory)

    reports = [
        check_run(result, label=label),
        check_schedule(
            scheduler.plans_by_quantum, machine, num_apps, label=label
        ),
        check_mode_schedule(
            scheduler.plans_by_quantum,
            inner.mode_history,
            machine,
            num_apps,
            label=label,
        ),
        check_mode_outcome(
            outcome, result, schedule, machine.memory, label=label
        ),
        check_decision_trace(inner.recorder.records, label=label),
    ]
    if num_apps == machine.num_cores:
        pair = []
        for make in (
            lambda: ModeAwareReliabilityScheduler(
                machine, num_apps, allowed_modes=("none",)
            ),
            lambda: ReliabilityScheduler(machine, num_apps),
        ):
            run = MulticoreSimulation(
                machine,
                [benchmark(name).scaled(instructions) for name in names],
                make(),
                counter_mode=AceCounterMode.FULL,
            ).run()
            payload = run_result_to_dict(run)
            payload["scheduler_name"] = "reliability"
            pair.append(payload)
        reports.append(check_mode_none(pair[0], pair[1], label=label))
    return merge_reports(reports, subject=label)


def _segment_case(index: int, rng: np.random.Generator) -> CheckReport:
    """Fuzz the segment step's column path against its generic path.

    One random (machine, mix, scheduler, counter mode, completion
    mode) runs with the process's mechanistic models and again with
    :class:`_GenericPathModel` models; run invariants must hold and the
    two serialized results must be byte-identical.
    """
    from repro.ace.counters import AceCounterMode
    from repro.check.invariants import check_segment_paths, merge_reports
    from repro.sim.experiment import make_scheduler
    from repro.sim.multicore import MulticoreSimulation
    from repro.sim.serialize import run_result_to_dict
    from repro.workloads.spec2006 import benchmark

    machine_name = SEGMENT_FUZZ_MACHINES[
        int(rng.integers(len(SEGMENT_FUZZ_MACHINES)))
    ]
    machine = STANDARD_MACHINES[machine_name]()
    scheduler_name = SEGMENT_FUZZ_SCHEDULERS[
        int(rng.integers(len(SEGMENT_FUZZ_SCHEDULERS)))
    ]
    counter_mode = (AceCounterMode.FULL, AceCounterMode.ROB_ONLY)[
        int(rng.integers(2))
    ]
    restart = bool(rng.integers(2))
    picks = rng.choice(
        len(BENCHMARK_NAMES), size=machine.num_cores, replace=False
    )
    names = tuple(BENCHMARK_NAMES[i] for i in sorted(picks.tolist()))
    instructions = int(rng.integers(100_000_000, 400_000_000))
    label = (
        f"segment/{index} {machine_name}/{scheduler_name}/"
        f"{counter_mode.value}/{'restart' if restart else 'complete'}/"
        f"{'+'.join(names)}x{instructions}"
    )

    generic = {
        core_type: _GenericPathModel(
            getattr(machine, core_type), machine.memory
        )
        for core_type in ("big", "small")
    }
    results = [
        MulticoreSimulation(
            machine,
            [benchmark(name).scaled(instructions) for name in names],
            make_scheduler(scheduler_name, machine, machine.num_cores),
            models=models,
            counter_mode=counter_mode,
            record_timeline=True,
            restart_finished=restart,
        ).run()
        for models in (None, generic)
    ]
    return merge_reports(
        [
            check_run(results[0], label=label),
            check_segment_paths(
                *map(run_result_to_dict, results), label=label
            ),
        ],
        subject=label,
    )


def fuzz(
    seed: int = 0,
    *,
    model_cases: int = 2,
    run_cases: int = 3,
    stack_cases: int = 2,
    kernel_cases: int = 2,
    decision_cases: int = 2,
    resume_cases: int = 2,
    service_cases: int = 2,
    shard_cases: int = 2,
    mode_cases: int = 2,
    segment_cases: int = 2,
    gates: FuzzGates | None = None,
) -> FuzzReport:
    """Run one seeded fuzzing session.

    All randomness derives from ``seed`` through one
    :class:`numpy.random.Generator`; nothing reads the clock, so the
    findings are reproducible byte-for-byte.  Newer case kinds (kernel,
    then decision, then resume, then service, then shard, then mode,
    then segment) draw from the rng after the older ones, so adding them
    kept existing seeds' earlier cases identical; removing a kind shifts
    the inputs of every kind after it.
    """
    gates = gates if gates is not None else FuzzGates()
    rng = np.random.default_rng(seed)
    reports: list[CheckReport] = []
    for index in range(model_cases):
        reports.append(_model_case(index, rng, gates))
    for index in range(run_cases):
        reports.append(_run_case(index, rng))
    for index in range(stack_cases):
        reports.append(_stack_case(index, rng))
    for index in range(kernel_cases):
        reports.append(_kernel_case(index, rng))
    for index in range(decision_cases):
        reports.append(_decision_case(index, rng))
    for index in range(resume_cases):
        reports.append(_resume_case(index, rng))
    for index in range(service_cases):
        reports.append(_service_case(index, rng))
    for index in range(shard_cases):
        reports.append(_shard_case(index, rng))
    for index in range(mode_cases):
        reports.append(_mode_case(index, rng))
    for index in range(segment_cases):
        reports.append(_segment_case(index, rng))
    return FuzzReport(seed=seed, reports=tuple(reports))
