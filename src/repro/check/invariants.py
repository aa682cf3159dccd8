"""Registry of paper invariants over simulation results and schedules.

Every invariant encodes one piece of the paper's math that the
simulator must preserve regardless of how the hot paths are
refactored:

* ``wSER = ABC / T_ref x IFR`` and ``SER = ABC / T x IFR``
  (Equations 1-2), recomputed *through* :mod:`repro.metrics.reliability`
  so a regression in the metrics module disagrees with the simulator's
  bookkeeping and is caught.
* ``SSER = sum_i wSER_i`` (Equation 3): the run-level SSER must equal
  the per-application decomposition.
* ABC conservation across per-structure stacks: structure entries are
  non-negative, sum to the core total, never exceed the structure's
  occupied bit-cycles, and the FULL counter reads the exact total.
* Schedule legality: every quantum's segments cover exactly the
  quantum, each application sits on at most one in-range core per
  segment, and no core runs two applications.
* Oracle dominance: the exhaustive Section 2.4 enumeration can never
  lose to a greedy static pick on identical inputs.

Checks produce a :class:`CheckReport` whose :class:`Violation` entries
name the violated invariant, the checked subject, and the offending
values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.config.machines import MachineConfig
from repro.metrics.reliability import (
    DEFAULT_IFR,
    soft_error_rate,
    system_ser,
    weighted_ser,
)
from repro.sched.base import PARKED, SegmentPlan
from repro.sim.isolated import IsolatedStats
from repro.sim.results import AppRunRecord, RunResult

#: Default relative tolerance for floating-point identities.
REL_TOL = 1e-9

#: Looser tolerance for identities crossing an accumulation order
#: (per-quantum sums vs closed-form recomputation).
SUM_TOL = 1e-6


class Severity(enum.Enum):
    """How bad a violated invariant is.

    ``ERROR`` breaks the paper's math; ``WARNING`` flags a quantity
    outside its expected envelope (legitimate for unusual model
    configurations, suspicious otherwise).
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Violation:
    """One violated invariant on one subject.

    Attributes:
        invariant: registry name of the violated invariant.
        severity: the invariant's severity tag.
        subject: label of the checked run/schedule/stack.
        message: what went wrong, in one sentence.
        values: the offending values, as deterministic (name, value)
            pairs.
    """

    invariant: str
    severity: Severity
    subject: str
    message: str
    values: tuple[tuple[str, float], ...] = ()

    def format(self) -> str:
        rendered = ", ".join(f"{name}={value!r}" for name, value in self.values)
        suffix = f" [{rendered}]" if rendered else ""
        return (
            f"{self.severity.value.upper()} {self.invariant} @ "
            f"{self.subject}: {self.message}{suffix}"
        )


@dataclass(frozen=True)
class CheckReport:
    """Outcome of running a set of invariants on one subject.

    Attributes:
        subject: label of what was checked.
        checked: names of every invariant that ran.
        violations: every violation found, in registry order.
    """

    subject: str
    checked: tuple[str, ...]
    violations: tuple[Violation, ...] = ()

    @property
    def errors(self) -> tuple[Violation, ...]:
        return tuple(
            v for v in self.violations if v.severity is Severity.ERROR
        )

    @property
    def warnings(self) -> tuple[Violation, ...]:
        return tuple(
            v for v in self.violations if v.severity is Severity.WARNING
        )

    @property
    def ok(self) -> bool:
        """True when no *error*-severity invariant was violated."""
        return not self.errors

    def invariant_names(self) -> tuple[str, ...]:
        """Violated invariant names, deduplicated, in first-hit order."""
        seen: dict[str, None] = {}
        for violation in self.violations:
            seen.setdefault(violation.invariant, None)
        return tuple(seen)

    def format(self) -> str:
        if not self.violations:
            return (
                f"{self.subject}: OK ({len(self.checked)} invariant(s) held)"
            )
        lines = [
            f"{self.subject}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        ]
        lines.extend("  " + violation.format() for violation in self.violations)
        return "\n".join(lines)


def merge_reports(
    reports: Iterable[CheckReport], subject: str = "all"
) -> CheckReport:
    """Combine several reports into one (violations concatenated)."""
    checked: dict[str, None] = {}
    violations: list[Violation] = []
    for report in reports:
        for name in report.checked:
            checked.setdefault(name, None)
        violations.extend(report.violations)
    return CheckReport(
        subject=subject, checked=tuple(checked), violations=tuple(violations)
    )


# -- registry ---------------------------------------------------------

#: Findings yielded by an invariant body: (message, offending values).
Finding = tuple[str, Mapping[str, float]]


@dataclass(frozen=True)
class Invariant:
    """A named, severity-tagged predicate over one subject kind.

    Attributes:
        name: registry key, referenced by violation reports.
        severity: what a violation means (see :class:`Severity`).
        subject_kind: ``"run"``, ``"stack"``, ``"schedule"`` or
            ``"oracle"``; selects which ``check_*`` runner applies it.
        description: one-line statement of the property.
        fn: generator yielding :data:`Finding` tuples for violations.
    """

    name: str
    severity: Severity
    subject_kind: str
    description: str
    fn: Callable[..., Iterator[Finding]] = field(compare=False)


_REGISTRY: dict[str, Invariant] = {}


def registered_invariants(
    subject_kind: str | None = None,
) -> tuple[Invariant, ...]:
    """Every registered invariant, optionally filtered by subject.

    The differential fuzzer's invariants register when
    :mod:`repro.check.differential` is imported, so the listing
    imports it first.
    """
    import repro.check.differential  # noqa: F401

    return _registered(subject_kind)


def _registered(subject_kind: str | None) -> tuple[Invariant, ...]:
    return tuple(
        inv
        for inv in _REGISTRY.values()
        if subject_kind is None or inv.subject_kind == subject_kind
    )


def invariant(
    name: str, *, severity: Severity = Severity.ERROR, subject: str = "run"
):
    """Register an invariant body under ``name``."""

    def register(fn: Callable[..., Iterator[Finding]]):
        if name in _REGISTRY:
            raise ValueError(f"duplicate invariant name {name!r}")
        description = (fn.__doc__ or "").strip().splitlines()[0]
        _REGISTRY[name] = Invariant(name, severity, subject, description, fn)
        return fn

    return register


def _apply(
    subject_kind: str, subject_label: str, *args
) -> CheckReport:
    invariants = _registered(subject_kind)
    violations: list[Violation] = []
    for inv in invariants:
        for message, values in inv.fn(*args):
            violations.append(
                Violation(
                    invariant=inv.name,
                    severity=inv.severity,
                    subject=subject_label,
                    message=message,
                    values=tuple(sorted(values.items())),
                )
            )
    return CheckReport(
        subject=subject_label,
        checked=tuple(inv.name for inv in invariants),
        violations=tuple(violations),
    )


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    # Relative only: reliability quantities scale with IFR = 1e-25,
    # so any absolute tolerance would swamp them and mask real drift.
    return math.isclose(a, b, rel_tol=tol, abs_tol=0.0)


# -- run-level invariants ---------------------------------------------

#: Non-negative numeric fields of an application record.
_NON_NEGATIVE_APP_FIELDS = (
    "instructions",
    "time_seconds",
    "abc_seconds",
    "occupancy_bit_seconds",
    "reference_time_seconds",
    "time_big_seconds",
    "time_small_seconds",
    "instructions_big",
    "instructions_small",
    "dram_accesses",
    "l3_accesses",
    "migrations",
    "completed_runs",
)


@invariant("non_negative_quantities")
def _non_negative_quantities(result: RunResult) -> Iterator[Finding]:
    """Every timing/ACE/traffic quantity in a run is non-negative."""
    if result.duration_seconds < 0:
        yield (
            "run duration is negative",
            {"duration_seconds": result.duration_seconds},
        )
    if result.quanta < 0:
        yield "quantum count is negative", {"quanta": result.quanta}
    for app in result.apps:
        for name in _NON_NEGATIVE_APP_FIELDS:
            value = getattr(app, name)
            if value < 0:
                yield (
                    f"{app.name}.{name} is negative",
                    {name: value},
                )
    for point in result.timeline:
        if point.abc_per_second < 0 or point.time_seconds < 0:
            yield (
                f"timeline point for {point.app_name} has negative values",
                {
                    "abc_per_second": point.abc_per_second,
                    "time_seconds": point.time_seconds,
                },
            )


@invariant("positive_times")
def _positive_times(result: RunResult) -> Iterator[Finding]:
    """Execution and reference times are strictly positive."""
    for app in result.apps:
        if app.time_seconds <= 0:
            yield (
                f"{app.name} has non-positive execution time",
                {"time_seconds": app.time_seconds},
            )
        if app.reference_time_seconds <= 0:
            yield (
                f"{app.name} has non-positive reference time",
                {"reference_time_seconds": app.reference_time_seconds},
            )


def _reliable_apps(result: RunResult) -> list[AppRunRecord]:
    """Applications whose reliability quantities are well-defined."""
    return [
        app
        for app in result.apps
        if app.time_seconds > 0 and app.reference_time_seconds > 0
    ]


@invariant("wser_definition")
def _wser_definition(result: RunResult) -> Iterator[Finding]:
    """Per-application wSER and SER match Equations 1-2.

    The run's bookkeeping is recomputed through
    :mod:`repro.metrics.reliability`; any drift between the simulator's
    inline math and the metrics module is a violation.
    """
    for app in _reliable_apps(result):
        expected_wser = weighted_ser(
            app.abc_seconds, app.reference_time_seconds, DEFAULT_IFR
        )
        if not _close(app.wser, expected_wser):
            yield (
                f"{app.name}.wser disagrees with Equation 2 "
                f"(ABC / T_ref x IFR)",
                {
                    "abc_seconds": app.abc_seconds,
                    "expected_wser": expected_wser,
                    "reference_time_seconds": app.reference_time_seconds,
                    "wser": app.wser,
                },
            )
        expected_ser = soft_error_rate(
            app.abc_seconds, app.time_seconds, DEFAULT_IFR
        )
        if not _close(app.ser, expected_ser):
            yield (
                f"{app.name}.ser disagrees with Equation 1 (ABC / T x IFR)",
                {
                    "abc_seconds": app.abc_seconds,
                    "expected_ser": expected_ser,
                    "ser": app.ser,
                    "time_seconds": app.time_seconds,
                },
            )


@invariant("sser_decomposition")
def _sser_decomposition(result: RunResult) -> Iterator[Finding]:
    """Run SSER equals the sum of per-application wSERs (Equation 3)."""
    apps = _reliable_apps(result)
    if len(apps) != len(result.apps):
        return  # positive_times already reported the real problem
    from_parts = sum(app.wser for app in apps)
    if not _close(result.sser, from_parts, SUM_TOL):
        yield (
            "SSER does not equal the sum of per-application wSERs",
            {"sser": result.sser, "sum_of_wser": from_parts},
        )
    recomputed = system_ser(
        [app.abc_seconds for app in apps],
        [app.reference_time_seconds for app in apps],
        DEFAULT_IFR,
    )
    if not _close(result.sser, recomputed, SUM_TOL):
        yield (
            "SSER disagrees with metrics.system_ser on the same inputs",
            {"recomputed": recomputed, "sser": result.sser},
        )


@invariant("time_decomposition")
def _time_decomposition(result: RunResult) -> Iterator[Finding]:
    """Per-core-type time and instructions decompose the totals.

    Big- plus small-core instruction counts must equal the total
    exactly; per-core-type execution time cannot exceed the run
    duration (parked segments legitimately leave a gap).
    """
    for app in result.apps:
        split = app.instructions_big + app.instructions_small
        if split != app.instructions:
            yield (
                f"{app.name} instruction split does not sum to the total",
                {
                    "instructions": app.instructions,
                    "instructions_big": app.instructions_big,
                    "instructions_small": app.instructions_small,
                },
            )
        on_core = app.time_big_seconds + app.time_small_seconds
        budget = result.duration_seconds * (1 + SUM_TOL) + SUM_TOL
        if on_core > budget:
            yield (
                f"{app.name} on-core time exceeds the run duration",
                {
                    "duration_seconds": result.duration_seconds,
                    "time_big_seconds": app.time_big_seconds,
                    "time_small_seconds": app.time_small_seconds,
                },
            )


@invariant("abc_within_occupancy")
def _abc_within_occupancy(result: RunResult) -> Iterator[Finding]:
    """ACE bit-seconds never exceed occupied bit-seconds.

    ACE bits are a subset of occupied bits, so the ground-truth ABC
    accumulation can never exceed the occupancy accumulation.
    """
    for app in result.apps:
        budget = app.occupancy_bit_seconds * (1 + SUM_TOL) + SUM_TOL
        if app.abc_seconds > budget:
            yield (
                f"{app.name} accumulated more ACE than occupied bit-seconds",
                {
                    "abc_seconds": app.abc_seconds,
                    "occupancy_bit_seconds": app.occupancy_bit_seconds,
                },
            )


@invariant("slowdown_at_least_one", severity=Severity.WARNING)
def _slowdown_at_least_one(result: RunResult) -> Iterator[Finding]:
    """Sharing a machine cannot beat the isolated big-core reference.

    Interference and migration only slow applications down, so the
    per-application slowdown ``T / T_ref`` should stay >= 1.  A value
    below 1 means the mix ran *faster* than the isolated reference --
    legitimate only for exotic model overrides.
    """
    for app in _reliable_apps(result):
        if app.slowdown < 1.0 - SUM_TOL:
            yield (
                f"{app.name} ran faster in the mix than its isolated "
                f"big-core reference",
                {
                    "reference_time_seconds": app.reference_time_seconds,
                    "slowdown": app.slowdown,
                    "time_seconds": app.time_seconds,
                },
            )


def check_run(result: RunResult, *, label: str | None = None) -> CheckReport:
    """Run every run-level invariant on one simulation result."""
    if label is None:
        mix = "+".join(app.name for app in result.apps)
        label = f"{result.machine_name}/{result.scheduler_name}/{mix}"
    return _apply("run", label, result)


def default_run_checks(result: RunResult) -> CheckReport:
    """The standard per-job check hook for the execution engine."""
    return check_run(result)


# -- ABC stack invariants ---------------------------------------------


@invariant("stack_conservation", subject="stack")
def _stack_conservation(quantum_result) -> Iterator[Finding]:
    """Per-structure ACE entries are non-negative and sum to the total.

    The Figure 5 ABC stacks decompose the core total; a negative entry
    or a total that drifts from the per-structure sum means the stack
    no longer conserves ABC.
    """
    total = 0.0
    for kind, value in quantum_result.ace_bit_cycles.items():
        if value < 0:
            yield (
                f"structure {kind.value} has negative ACE bit-cycles",
                {kind.value: value},
            )
        total += value
    reported = quantum_result.total_ace_bit_cycles
    if not _close(reported, total, SUM_TOL):
        yield (
            "total ACE bit-cycles drifted from the per-structure sum",
            {"per_structure_sum": total, "total": reported},
        )


@invariant("stack_within_occupancy", subject="stack")
def _stack_within_occupancy(quantum_result) -> Iterator[Finding]:
    """Each structure's ACE bit-cycles fit inside its occupancy."""
    for kind, ace in quantum_result.ace_bit_cycles.items():
        occupancy = quantum_result.occupancy_bit_cycles.get(kind)
        if occupancy is None:
            continue
        if ace > occupancy * (1 + SUM_TOL) + SUM_TOL:
            yield (
                f"structure {kind.value} holds more ACE than occupied "
                f"bit-cycles",
                {"ace_bit_cycles": ace, "occupancy_bit_cycles": occupancy},
            )


@invariant("full_counter_exact", subject="stack")
def _full_counter_exact(quantum_result) -> Iterator[Finding]:
    """The FULL counter architecture reads the exact core total."""
    from repro.ace.counters import AceCounterMode, measured_abc

    measured = measured_abc(quantum_result, AceCounterMode.FULL, True)
    if not _close(measured, quantum_result.total_ace_bit_cycles, SUM_TOL):
        yield (
            "FULL counters disagree with the ground-truth ACE total",
            {
                "measured": measured,
                "total": quantum_result.total_ace_bit_cycles,
            },
        )


def check_stack(quantum_result, *, label: str = "stack") -> CheckReport:
    """Run the ABC-stack invariants on one quantum result."""
    return _apply("stack", label, quantum_result)


# -- schedule invariants ----------------------------------------------


@invariant("quantum_coverage", subject="schedule")
def _quantum_coverage(
    plans_by_quantum: Sequence[Sequence[SegmentPlan]],
    machine: MachineConfig,
    num_apps: int,
) -> Iterator[Finding]:
    """Every quantum's segment fractions cover exactly the quantum."""
    for index, plans in enumerate(plans_by_quantum):
        total = sum(plan.fraction for plan in plans)
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            yield (
                f"quantum {index} segments cover {total}, expected 1.0",
                {"quantum": index, "total_fraction": total},
            )
        for plan in plans:
            if not 0.0 < plan.fraction <= 1.0:
                yield (
                    f"quantum {index} has a segment fraction outside (0, 1]",
                    {"fraction": plan.fraction, "quantum": index},
                )


@invariant("one_core_per_app", subject="schedule")
def _one_core_per_app(
    plans_by_quantum: Sequence[Sequence[SegmentPlan]],
    machine: MachineConfig,
    num_apps: int,
) -> Iterator[Finding]:
    """Each application sits on at most one in-range core per segment.

    The assignment maps every application to exactly one core id (or
    parks it); ids must exist on the machine, and no core may run two
    applications in the same segment.
    """
    for index, plans in enumerate(plans_by_quantum):
        for segment, plan in enumerate(plans):
            cores = plan.assignment.core_of
            if len(cores) != num_apps:
                yield (
                    f"quantum {index} segment {segment} assigns "
                    f"{len(cores)} applications, expected {num_apps}",
                    {"assigned": len(cores), "quantum": index},
                )
                continue
            running = [c for c in cores if c != PARKED]
            for app_index, core in enumerate(cores):
                if core != PARKED and not 0 <= core < machine.num_cores:
                    yield (
                        f"quantum {index} places application {app_index} "
                        f"on core {core}, outside {machine.name}",
                        {"app": app_index, "core": core, "quantum": index},
                    )
            if len(set(running)) != len(running):
                yield (
                    f"quantum {index} segment {segment} places two "
                    f"applications on one core",
                    {"quantum": index, "running": len(running)},
                )


@invariant("core_capacity", subject="schedule")
def _core_capacity(
    plans_by_quantum: Sequence[Sequence[SegmentPlan]],
    machine: MachineConfig,
    num_apps: int,
) -> Iterator[Finding]:
    """No segment runs more applications than the machine has cores."""
    for index, plans in enumerate(plans_by_quantum):
        for plan in plans:
            running = sum(1 for c in plan.assignment.core_of if c != PARKED)
            if running > machine.num_cores:
                yield (
                    f"quantum {index} runs {running} applications on "
                    f"{machine.num_cores} cores",
                    {
                        "num_cores": machine.num_cores,
                        "quantum": index,
                        "running": running,
                    },
                )


def check_schedule(
    plans_by_quantum: Sequence[Sequence[SegmentPlan]],
    machine: MachineConfig,
    num_apps: int,
    *,
    label: str = "schedule",
) -> CheckReport:
    """Run the schedule-legality invariants on recorded quantum plans."""
    return _apply("schedule", label, plans_by_quantum, machine, num_apps)


# -- decision-trace invariants ----------------------------------------

#: Tolerance for threshold comparisons recorded by optimizers whose
#: acceptance test algebraically rearranges the recorded quantities
#: (e.g. ``sser(best) < sser(current) * (1 - thr)`` vs the recorded
#: ``delta_total`` / ``threshold``); covers one reassociation ULP.
_DECISION_TOL = 1e-9


def _clears_threshold(delta_total: float, threshold: float) -> bool:
    # Acceptance is strict (``delta < -threshold`` with threshold >= 0),
    # so a non-negative delta never clears -- in particular the
    # delta=0/threshold=0 candidates produced by all-empty service
    # slots, which the absolute fudge below would otherwise misjudge.
    if delta_total >= 0.0:
        return False
    return delta_total < -threshold * (1 - _DECISION_TOL) + 1e-15


@invariant("decision_trace_consistency", subject="decision_trace")
def _decision_trace_consistency(records) -> Iterator[Finding]:
    """A scheduler decision trace replays and justifies every move.

    Consecutive records chain (``before`` continues the previous
    ``after``), the recorded moves reproduce each record's ``after``
    assignment, greedy-phase accepted candidates applied in order equal
    the recorded moves' effect, every accepted non-forced candidate's
    objective delta clears the hysteresis threshold (and every rejected
    one does not), segment fractions cover the quantum, the final
    segment runs the optimized assignment, and the sampling segment is
    exactly the recorded staleness swaps applied to it.
    """
    from repro.obs.decisions import apply_moves

    previous_after = None
    previous_modes: tuple[str, ...] | None = None
    for record in records:
        q = record.quantum
        if previous_after is not None and record.before != previous_after:
            yield (
                f"quantum {q} does not chain from the previous record",
                {"quantum": q},
            )
        if apply_moves(record.before, record.moves) != record.after:
            yield (
                f"quantum {q} moves do not reproduce the after assignment",
                {"quantum": q},
            )
        previous_after = record.after
        if record.phase == "greedy":
            # Mode candidates (kind == "mode") change protection state,
            # not cores; only placement swaps replay the permutation.
            accepted = [
                c
                for c in record.candidates
                if c.accepted and c.kind != "mode"
            ]
            replayed = record.before
            for cand in accepted:
                replayed = apply_moves(
                    replayed, [(cand.mover, cand.partner)]
                )
            if replayed != record.after:
                yield (
                    f"quantum {q} accepted swaps do not reproduce the "
                    f"after assignment",
                    {"accepted_swaps": float(len(accepted)), "quantum": q},
                )
        if record.modes:
            expected_modes = list(
                previous_modes
                if previous_modes
                else ("none",) * len(record.modes)
            )
            for cand in record.candidates:
                if (
                    cand.kind == "mode"
                    and cand.accepted
                    and 0 <= cand.mover < len(expected_modes)
                ):
                    expected_modes[cand.mover] = cand.mode
            if tuple(expected_modes) != record.modes:
                yield (
                    f"quantum {q} accepted mode changes do not reproduce "
                    f"the recorded mode keys",
                    {"quantum": q},
                )
            previous_modes = record.modes
        for index, cand in enumerate(record.candidates):
            if cand.accepted and not cand.forced:
                if not _clears_threshold(cand.delta_total, cand.threshold):
                    yield (
                        f"quantum {q} candidate {index} was accepted "
                        f"without clearing the swap threshold",
                        {
                            "delta_total": cand.delta_total,
                            "quantum": q,
                            "threshold": cand.threshold,
                        },
                    )
            elif not cand.accepted:
                if _clears_threshold(
                    cand.delta_total, cand.threshold * (1 + 2 * _DECISION_TOL)
                ):
                    yield (
                        f"quantum {q} candidate {index} was rejected "
                        f"despite clearing the swap threshold",
                        {
                            "delta_total": cand.delta_total,
                            "quantum": q,
                            "threshold": cand.threshold,
                        },
                    )
        if record.segments:
            total = sum(seg.fraction for seg in record.segments)
            if not math.isclose(total, 1.0, abs_tol=1e-9):
                yield (
                    f"quantum {q} segments cover {total}, expected 1.0",
                    {"quantum": q, "total_fraction": total},
                )
            if record.segments[-1].core_of != record.after:
                yield (
                    f"quantum {q} final segment does not run the "
                    f"optimized assignment",
                    {"quantum": q},
                )
            if record.phase != "initial_sampling":
                for seg in record.segments[:-1]:
                    if not seg.is_sampling:
                        continue
                    expected = apply_moves(
                        record.after, record.sampling_swaps
                    )
                    if seg.core_of != expected:
                        yield (
                            f"quantum {q} sampling segment disagrees "
                            f"with the recorded staleness swaps",
                            {"quantum": q},
                        )


def check_decision_trace(records, *, label: str = "decision_trace") -> CheckReport:
    """Run the decision-trace invariants on recorded quantum records."""
    return _apply("decision_trace", label, records)


# -- protection-mode invariants ----------------------------------------


@invariant("mode_model_conservation", subject="mode")
def _mode_model_conservation(outcome, result, schedule, memory) -> Iterator[Finding]:
    """Mode accounting is exactly the published model, conserved end to end.

    Recomputes every per-application overlay quantity (residual
    protected ABC, protection-state ABC, slowed execution time, moded
    wSER) from the run record, the mode dwell schedule, and the mode
    model constants, and requires the reported outcome to match.  Also
    pins the model's physical envelope: dwell weights sum to one,
    residual factors stay within [0, 1], slowdowns are at least one,
    and an all-``none`` application reports exactly its unprotected
    core + uncore accounting.
    """
    from repro.sched.modes import (
        apply_modes,
        parse_mode,
        residual_factor,
        slowdown_factor,
    )

    if len(outcome.apps) != len(result.apps):
        yield (
            f"outcome covers {len(outcome.apps)} applications, "
            f"run has {len(result.apps)}",
            {
                "outcome_apps": len(outcome.apps),
                "run_apps": len(result.apps),
            },
        )
        return
    quantum = schedule.quantum_seconds
    for index, moded in enumerate(outcome.apps):
        name = moded.name
        weight_sum = sum(moded.weights.values())
        if not math.isclose(weight_sum, 1.0, abs_tol=SUM_TOL):
            yield (
                f"{name}: mode dwell weights sum to {weight_sum}, "
                f"expected 1.0",
                {"app": index, "weight_sum": weight_sum},
            )
        for key in moded.weights:
            mode = parse_mode(key)
            residual = residual_factor(mode, quantum)
            slowdown = slowdown_factor(mode, quantum)
            if not 0.0 <= residual <= 1.0:
                yield (
                    f"{name}: mode {key} residual factor {residual} "
                    f"outside [0, 1]",
                    {"app": index, "residual": residual},
                )
            if slowdown < 1.0:
                yield (
                    f"{name}: mode {key} slowdown {slowdown} below 1",
                    {"app": index, "slowdown": slowdown},
                )
    recomputed = apply_modes(result, schedule, memory)
    fields = (
        "protected_abc_seconds",
        "protection_abc_seconds",
        "moded_time_seconds",
        "moded_wser",
        "protection_power_watts",
    )
    for index, (moded, expected) in enumerate(
        zip(outcome.apps, recomputed.apps)
    ):
        for field_name in fields:
            got = getattr(moded, field_name)
            want = getattr(expected, field_name)
            if got != want and not _close(got, want):
                yield (
                    f"{moded.name}: {field_name} = {got}, model "
                    f"recomputation gives {want}",
                    {"app": index, "got": got, "want": want},
                )
        if set(moded.weights) == {"none"}:
            app = result.apps[index]
            if not _close(
                moded.moded_time_seconds, app.time_seconds
            ) and moded.moded_time_seconds != app.time_seconds:
                yield (
                    f"{moded.name}: unprotected app reports moded time "
                    f"{moded.moded_time_seconds}, run time "
                    f"{app.time_seconds}",
                    {"app": index},
                )
            if moded.protection_abc_seconds != 0.0:
                yield (
                    f"{moded.name}: unprotected app charged protection "
                    f"ABC {moded.protection_abc_seconds}",
                    {"app": index},
                )


def check_mode_outcome(
    outcome, result, schedule, memory, *, label: str = "mode"
) -> CheckReport:
    """Run the mode-model conservation invariant on a run's overlay."""
    return _apply("mode", label, outcome, result, schedule, memory)


@invariant("mode_slot_legality", subject="mode_schedule")
def _mode_slot_legality(
    plans_by_quantum, mode_history, machine, num_apps
) -> Iterator[Finding]:
    """Protection modes and placements agree quantum by quantum.

    A DMR checker core is a small core that hosts no application in
    any segment of the quanta it is reserved for, and every DMR'd
    application sits on a big core (never parked, never sampled onto
    a small core) while its mode is active.
    """
    if len(plans_by_quantum) != len(mode_history):
        yield (
            f"recorded {len(plans_by_quantum)} quanta of plans but "
            f"{len(mode_history)} of mode history",
            {
                "mode_quanta": len(mode_history),
                "plan_quanta": len(plans_by_quantum),
            },
        )
        return
    for index, (plans, (mode_keys, checkers)) in enumerate(
        zip(plans_by_quantum, mode_history)
    ):
        for core in checkers:
            if machine.core_type(core) != "small":
                yield (
                    f"quantum {index} reserves non-small core {core} "
                    f"as a DMR checker",
                    {"core": core, "quantum": index},
                )
        dmr_apps = [
            app for app, key in enumerate(mode_keys) if key == "dmr"
        ]
        if len(checkers) != len(dmr_apps):
            yield (
                f"quantum {index} has {len(dmr_apps)} DMR applications "
                f"but {len(checkers)} checker cores",
                {"checkers": len(checkers), "quantum": index},
            )
        for segment, plan in enumerate(plans):
            cores = plan.assignment.core_of
            for app_index, core in enumerate(cores):
                if core in checkers:
                    yield (
                        f"quantum {index} segment {segment} double-"
                        f"assigns checker core {core} to application "
                        f"{app_index}",
                        {"app": app_index, "core": core, "quantum": index},
                    )
            for app in dmr_apps:
                core = cores[app] if app < len(cores) else PARKED
                if core == PARKED or machine.core_type(core) != "big":
                    yield (
                        f"quantum {index} segment {segment} runs DMR "
                        f"application {app} off a big core (core {core})",
                        {"app": app, "core": core, "quantum": index},
                    )


def check_mode_schedule(
    plans_by_quantum,
    mode_history,
    machine: MachineConfig,
    num_apps: int,
    *,
    label: str = "mode_schedule",
) -> CheckReport:
    """Run the mode/placement legality invariants on a recorded run."""
    return _apply(
        "mode_schedule", label, plans_by_quantum, mode_history, machine, num_apps
    )


@invariant("mode_none_equivalence", subject="mode_none")
def _mode_none_equivalence(moded_payload, baseline_payload) -> Iterator[Finding]:
    """Mode-aware scheduling restricted to ``none`` is the base scheduler.

    With ``allowed_modes=("none",)`` the mode phase never runs, so the
    serialized run result must be byte-identical to the plain
    reliability scheduler's (scheduler names normalized by the
    caller).
    """
    if moded_payload != baseline_payload:
        keys = sorted(
            set(moded_payload) | set(baseline_payload)
        )
        differing = [
            k
            for k in keys
            if moded_payload.get(k) != baseline_payload.get(k)
        ]
        yield (
            f"mode=none run diverges from the baseline scheduler in "
            f"{differing}",
            {"differing_keys": len(differing)},
        )


def check_mode_none(
    moded_payload, baseline_payload, *, label: str = "mode_none"
) -> CheckReport:
    """Compare serialized mode=none and baseline scheduler results."""
    return _apply("mode_none", label, moded_payload, baseline_payload)


# -- segment-step invariants ------------------------------------------


@invariant("segment_path_equivalence", subject="segment")
def _segment_path_equivalence(
    column_payload, generic_payload
) -> Iterator[Finding]:
    """The segment step's column path equals its generic path.

    Unmodified mechanistic models run their slices as columns and
    replay repeated segments; models that override ``run_cycles`` take
    the generic ``QuantumResult`` path and never replay.  The two runs'
    serialized results must be byte-identical.
    """
    if column_payload != generic_payload:
        keys = sorted(set(column_payload) | set(generic_payload))
        differing = [
            k for k in keys
            if column_payload.get(k) != generic_payload.get(k)
        ]
        yield (
            f"column and generic segment paths diverge in {differing}",
            {"differing_keys": len(differing)},
        )


def check_segment_paths(
    column_payload, generic_payload, *, label: str = "segment"
) -> CheckReport:
    """Compare serialized runs of the column and generic segment paths."""
    return _apply("segment", label, column_payload, generic_payload)


# -- resume invariants ------------------------------------------------


@invariant("resume_equivalence", subject="resume")
def _resume_equivalence(full, resumed) -> Iterator[Finding]:
    """A resumed campaign reports exactly what an uninterrupted run does.

    Checkpoint/resume must be invisible in the final report: the same
    jobs, the same per-job success/failure split, and bit-identical
    results (a resumed job may surface as a cache hit, but never as a
    different number).
    """
    from repro.sim.serialize import run_result_to_dict

    if len(full.outcomes) != len(resumed.outcomes):
        yield (
            "resumed report has a different job count",
            {
                "full_jobs": len(full.outcomes),
                "resumed_jobs": len(resumed.outcomes),
            },
        )
        return
    for a, b in zip(full.outcomes, resumed.outcomes):
        if a.ok != b.ok:
            yield (
                f"job {a.index} ({a.label}) changed status after resume",
                {
                    "full_ok": int(a.ok),
                    "index": a.index,
                    "resumed_ok": int(b.ok),
                },
            )
            continue
        if a.ok and run_result_to_dict(a.result) != run_result_to_dict(
            b.result
        ):
            yield (
                f"job {a.index} ({a.label}) result differs after resume",
                {"index": a.index},
            )


def check_resume(full, resumed, *, label: str = "resume") -> CheckReport:
    """Run the resume-equivalence invariant on two execution reports.

    ``full`` is an uninterrupted run's
    :class:`~repro.runtime.engine.ExecutionReport`; ``resumed`` is the
    report of a campaign finished via ``resume_from=``.
    """
    return _apply("resume", label, full, resumed)


# -- open-system service invariants -----------------------------------


@invariant("open_system_conservation", subject="service")
def _open_system_conservation(result) -> Iterator[Finding]:
    """Open-system job accounting never loses or invents a job.

    Every arrival is either admitted or shed (with a recorded reason),
    and every admitted job is either completed or still in flight when
    the system stops -- the two conservation identities that make the
    ``repro serve``/``repro load`` event feeds trustworthy.
    """
    if result.arrived != result.admitted + result.shed:
        yield (
            "arrivals do not split into admitted + shed",
            {
                "admitted": result.admitted,
                "arrived": result.arrived,
                "shed": result.shed,
            },
        )
    if result.admitted != result.completed + result.in_flight:
        yield (
            "admitted jobs do not split into completed + in-flight",
            {
                "admitted": result.admitted,
                "completed": result.completed,
                "in_flight": result.in_flight,
            },
        )
    by_reason = sum(result.shed_reasons.values())
    if by_reason != result.shed:
        yield (
            "per-reason shed counts do not sum to the shed total",
            {"shed": result.shed, "sum_of_reasons": by_reason},
        )
    if len(result.waits) != result.admitted:
        yield (
            "queueing-delay samples do not cover every admitted job",
            {"admitted": result.admitted, "wait_samples": len(result.waits)},
        )
    for wait in result.waits:
        if wait < 0:
            yield "negative queueing delay recorded", {"wait_seconds": wait}
            break


def check_service(result, *, label: str = "service") -> CheckReport:
    """Run the open-system invariants on one :class:`ServiceResult`."""
    return _apply("service", label, result)


# -- oracle invariants ------------------------------------------------


def _greedy_big_apps(
    stats: Sequence[IsolatedStats], machine: MachineConfig
) -> tuple[int, ...]:
    """Greedy static pick: big cores go to the applications whose
    per-application wSER contribution grows least by being there."""
    from repro.config.machines import BIG, SMALL

    def penalty(app: IsolatedStats) -> float:
        big = app.run(BIG).abc_seconds / app.reference_time_seconds
        small = app.run(SMALL).abc_seconds / app.reference_time_seconds
        return big - small

    order = sorted(range(len(stats)), key=lambda i: (penalty(stats[i]), i))
    return tuple(sorted(order[: machine.big_cores]))


@invariant("oracle_dominates_greedy", subject="oracle")
def _oracle_dominates_greedy(
    stats: Sequence[IsolatedStats], machine: MachineConfig
) -> Iterator[Finding]:
    """The exhaustive oracle never loses to a greedy static pick.

    ``best_sser_schedule`` enumerates every assignment, so on identical
    inputs its SSER must be <= the greedy heuristic's (and its STP
    counterpart must dominate every enumerated schedule).
    """
    from repro.sched.oracle import (
        best_sser_schedule,
        best_stp_schedule,
        enumerate_schedules,
        predict,
    )

    schedules = enumerate_schedules(stats, machine)
    best_sser = best_sser_schedule(stats, machine)
    best_stp = best_stp_schedule(stats, machine)
    greedy = predict(stats, _greedy_big_apps(stats, machine))
    if best_sser.sser > greedy.sser * (1 + REL_TOL):
        yield (
            "reliability oracle predicts worse SSER than the greedy pick",
            {"greedy_sser": greedy.sser, "oracle_sser": best_sser.sser},
        )
    for schedule in schedules:
        if best_sser.sser > schedule.sser * (1 + REL_TOL):
            yield (
                f"reliability oracle loses to enumerated schedule "
                f"{schedule.big_apps}",
                {
                    "oracle_sser": best_sser.sser,
                    "schedule_sser": schedule.sser,
                },
            )
        if best_stp.stp < schedule.stp * (1 - REL_TOL):
            yield (
                f"performance oracle loses to enumerated schedule "
                f"{schedule.big_apps}",
                {"oracle_stp": best_stp.stp, "schedule_stp": schedule.stp},
            )


def check_oracle(
    stats: Sequence[IsolatedStats],
    machine: MachineConfig,
    *,
    label: str = "oracle",
) -> CheckReport:
    """Run the oracle-dominance invariants on one enumeration input."""
    return _apply("oracle", label, stats, machine)
