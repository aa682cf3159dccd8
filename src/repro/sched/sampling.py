"""Sampling-based scheduling machinery (paper Section 4.1).

Both the reliability-optimized and the performance-optimized
schedulers are instances of the same sampling algorithm; they differ
only in the per-application objective estimated from the samples:

* an **initial sampling phase** runs every application at least once
  on each core type (two quanta on a symmetric HCMP, more on an
  asymmetric one);
* a **staleness rule** re-samples any application that has run on the
  same core type for ``sampling_period_quanta`` consecutive quanta by
  swapping it, for one short sampling quantum, with the application
  that has run longest on the other core type;
* a **greedy pair-swap optimizer** repeatedly switches the application
  with the largest objective reduction against the application with
  the smallest objective increase while the net effect improves
  (Algorithm 1).

Subclasses implement :meth:`SamplingScheduler.objective_value`: the
estimated per-application contribution to the (minimized) system
objective when running on a given core type.

A steady quantum replays instead of recomputing.  An observation the
segment step replays yields the sample object it yielded before, and
the greedy search keeps a memo keyed by the assignment, the locked
applications and the identities of the samples it reads; a repeated
search re-emits its candidate records and returns its stored result.
docs/performance.md ("Decision replay") writes out why that is exact.
"""

from __future__ import annotations

import abc
import operator
from dataclasses import dataclass
from typing import Sequence

from repro.config.machines import BIG, SMALL, MachineConfig
from repro.obs import metrics as obs_metrics
from repro.sched.base import Assignment, Observation, Scheduler, SegmentPlan

#: Entries each of a sampling scheduler's two replay maps holds: the
#: decision memo is emptied when full, the observation-to-sample map
#: cut to half the cap (docs/performance.md, "Decision replay").
DECISION_MEMO_CAP = 256

#: Memo value of a search key seen once.
_SEEN = ()


@dataclass
class CoreTypeSample:
    """Most recent counter readings of one application on one core type.

    ``l3_apki`` / ``dram_apki`` are memory accesses per kilo-instruction
    from ordinary performance counters (used by counter-free ABC
    predictors; see `repro.ace.predictor`).
    """

    instructions_per_second: float
    abc_per_second: float
    l3_apki: float = 0.0
    dram_apki: float = 0.0
    branch_mpki: float = 0.0
    age_quanta: int = 0


def observed_sample(observation: Observation) -> CoreTypeSample | None:
    """The sample one observation yields: its rates at age 0, or
    ``None`` when it measured no time or no instructions."""
    if observation.duration_seconds <= 0 or observation.instructions <= 0:
        return None
    return CoreTypeSample(
        instructions_per_second=observation.instructions_per_second,
        abc_per_second=observation.abc_per_second,
        l3_apki=observation.l3_apki,
        dram_apki=observation.dram_apki,
        branch_mpki=observation.branch_mpki,
    )


def _replay_rank(item: tuple[int, list]) -> tuple[bool, int]:
    """Sort key of an observation-to-sample entry: (replayed, last use)."""
    return item[1][3], item[1][2]


def _other(core_type: str) -> str:
    return SMALL if core_type == BIG else BIG


#: Default swap hysteresis: a pair swap must promise at least this
#: relative improvement of the system objective.  Without hysteresis,
#: nearly-tied applications ping-pong between core types every
#: quantum, and because wSER is a ratio of integrals (ACE bits over
#: reference work), an application that time-slices between the core
#: types keeps most of its big-core ACE accumulation while gaining
#: little reference work -- strictly worse than either static choice.
DEFAULT_SWAP_THRESHOLD = 0.02


class SamplingScheduler(Scheduler):
    """Base class implementing the sampling schedule of Algorithm 1."""

    #: Optimizer phase reported in decision-trace records; subclasses
    #: replacing the greedy loop override this (see repro.obs.decisions).
    decision_phase = "greedy"

    def __init__(
        self,
        machine: MachineConfig,
        num_apps: int,
        swap_threshold: float = DEFAULT_SWAP_THRESHOLD,
    ):
        super().__init__(machine, num_apps)
        if machine.big_cores == 0 or machine.small_cores == 0:
            raise ValueError("sampling schedulers need both core types")
        if swap_threshold < 0:
            raise ValueError("swap threshold cannot be negative")
        self.swap_threshold = swap_threshold
        #: Optional repro.obs.decisions.DecisionTraceRecorder; when set,
        #: plan_quantum emits one QuantumRecord per quantum and the
        #: optimizer reports every swap candidate it weighs.
        self.recorder = None
        self._samples: dict[tuple[int, str], CoreTypeSample] = {}
        self._consecutive = [0] * num_apps
        self._last_type: dict[int, str] = {}
        self._assignment = self.identity_assignment(num_apps)
        self._final_segment: SegmentPlan | None = None
        self._sampling_fraction = (
            machine.sampling_quantum_seconds / machine.quantum_seconds
        )
        # Whether the initial sampling phase is over: samples are
        # replaced but never dropped, so it stays over.
        self._sampled = False
        # The last full-quantum regular segment, reused while the
        # assignment object stays the same.
        self._steady: SegmentPlan | None = None
        # The (app, core type) keys the greedy search reads, in
        # canonical order.
        self._sample_keys = tuple(
            (i, t) for i in range(num_apps) for t in (BIG, SMALL)
        )
        # Decision memo: search key -> (pinned samples, resulting
        # assignment, candidate records), or _SEEN after one sighting.
        self._decisions: dict[tuple, tuple] = {}
        # id(observation) -> [observation, the sample it yielded, the
        # observe call that last inserted or replayed it, whether it
        # replayed]; _observed counts the calls.
        self._sample_of: dict[int, list] = {}
        self._observed = 0

    # -- objective -------------------------------------------------------

    @abc.abstractmethod
    def objective_value(self, app_index: int, core_type: str) -> float:
        """Estimated contribution to the minimized objective.

        Implementations read only the rate fields of the samples in
        ``self._samples`` and constants fixed at construction, never
        ``age_quanta`` or other state that changes during a run, and
        they mutate nothing.  The greedy search's decision memo relies
        on this purity: the same sample objects give the same values.
        Both core types are guaranteed to have samples when this is
        called.
        """

    # -- mode-aware hooks ------------------------------------------------
    #
    # Mode-aware subclasses dedicate cores to protection duties (a DMR
    # checker occupies a small-core slot) and pin protected apps in
    # place.  The base scheduler consults these hooks so its placement
    # machinery never touches reserved cores or pinned applications;
    # the empty defaults leave base behavior byte-identical.

    def _blocked_cores(self) -> frozenset[int]:
        """Cores reserved by protection modes (never host an app)."""
        return frozenset()

    def _swap_locked(self) -> frozenset[int]:
        """Apps pinned by their protection mode (never swapped)."""
        return frozenset()

    def _mode_keys(self) -> tuple[str, ...]:
        """Per-app protection-mode keys for decision-trace records."""
        return ()

    # -- sample access ---------------------------------------------------

    def sample(self, app_index: int, core_type: str) -> CoreTypeSample | None:
        return self._samples.get((app_index, core_type))

    def _has_both_samples(self, app_index: int) -> bool:
        return (app_index, BIG) in self._samples and (
            app_index,
            SMALL,
        ) in self._samples

    # -- planning --------------------------------------------------------

    def plan_quantum(self, quantum_index: int) -> list[SegmentPlan]:
        recorder = self.recorder
        before = self._assignment.core_of
        missing: list[int] = []
        if not self._sampled:
            missing = [
                i for i in range(self.num_apps)
                if not self._has_both_samples(i)
            ]
            self._sampled = not missing
        stale: list[int] = []
        sampling_swaps: tuple[tuple[int, int], ...] = ()
        objectives: list[tuple[int, float, float]] = []
        if missing:
            plan = [
                SegmentPlan(1.0, self._initial_sampling_assignment(), True)
            ]
        else:
            stale = [
                i
                for i in range(self.num_apps)
                if self._consecutive[i] >= self.machine.sampling_period_quanta
            ]
            self._assignment = self._optimize(self._assignment)
            if stale:
                reg = obs_metrics.ACTIVE
                if reg is not None:
                    reg.counter("sched.stale_apps").inc(len(stale))
                sampling, sampling_swaps = self._staleness_swaps(
                    self._assignment, stale
                )
                plan = [
                    SegmentPlan(self._sampling_fraction, sampling, True),
                    SegmentPlan(
                        1.0 - self._sampling_fraction, self._assignment, False
                    ),
                ]
            else:
                steady = self._steady
                if steady is None or steady.assignment is not self._assignment:
                    steady = SegmentPlan(1.0, self._assignment, False)
                    self._steady = steady
                plan = [steady]
            if recorder is not None:
                objectives = [
                    (
                        i,
                        self.objective_value(i, BIG),
                        self.objective_value(i, SMALL),
                    )
                    for i in range(self.num_apps)
                ]
        self._final_segment = plan[-1]
        if recorder is not None:
            recorder.quantum(
                quantum=quantum_index,
                scheduler=type(self).__name__,
                phase="initial_sampling" if missing else self.decision_phase,
                before=before,
                after=self._assignment.core_of,
                objectives=objectives,
                stale=tuple(stale),
                sampling_swaps=sampling_swaps,
                segments=tuple(
                    (p.fraction, p.assignment.core_of, p.is_sampling)
                    for p in plan
                ),
                modes=self._mode_keys(),
            )
        return plan

    def _initial_sampling_assignment(self) -> Assignment:
        """Next quantum of the initial sampling rotation.

        Applications still missing a big-core sample get big cores
        first; applications missing a small-core sample get small
        cores; everything else fills the remaining cores.
        """
        need_big = [
            i for i in range(self.num_apps) if (i, BIG) not in self._samples
        ]
        need_small = [
            i for i in range(self.num_apps) if (i, SMALL) not in self._samples
        ]
        blocked = self._blocked_cores()
        big_slots = [
            c for c in range(self.machine.big_cores) if c not in blocked
        ]
        small_slots = [
            c
            for c in range(self.machine.big_cores, self.machine.num_cores)
            if c not in blocked
        ]
        core_of: dict[int, int] = {}
        for app in need_big:
            if big_slots:
                core_of[app] = big_slots.pop(0)
        for app in need_small:
            if app not in core_of and small_slots:
                core_of[app] = small_slots.pop(0)
        free = big_slots + small_slots
        for app in range(self.num_apps):
            if app not in core_of:
                core_of[app] = free.pop(0)
        self._assignment = Assignment(
            tuple(core_of[i] for i in range(self.num_apps))
        )
        return self._assignment

    def _staleness_swaps(
        self, assignment: Assignment, stale: Sequence[int]
    ) -> tuple[Assignment, tuple[tuple[int, int], ...]]:
        """Sampling-segment assignment refreshing stale applications.

        Each stale application is switched with the application that
        has run for the most consecutive quanta on the other core
        type (paper Section 4.1).  Returns the sampling assignment and
        the (app, partner) swaps performed, in order.
        """
        sampling = assignment
        used: set[int] = set(self._swap_locked())
        swaps: list[tuple[int, int]] = []
        for app in sorted(stale, key=lambda i: -self._consecutive[i]):
            if app in used:
                continue
            my_type = assignment.core_type_of(app, self.machine)
            partners = [
                j
                for j in range(self.num_apps)
                if j != app
                and j not in used
                and assignment.core_type_of(j, self.machine) != my_type
            ]
            if not partners:
                continue
            partner = max(partners, key=lambda j: self._consecutive[j])
            sampling = sampling.with_swap(app, partner)
            swaps.append((app, partner))
            used.update((app, partner))
        return sampling, tuple(swaps)

    def _optimize(self, assignment: Assignment) -> Assignment:
        """Greedy pair-swap optimization (the core of Algorithm 1).

        A search is a function of the assignment, the locked
        applications and the samples it reads (see
        :meth:`objective_value`), so a repeated search replays: the
        memo re-emits its candidate records, in order, and returns its
        stored result.  A key is marked on its first sighting and
        stored on its second, so searches that never recur store
        nothing.
        """
        locked = self._swap_locked()
        if DECISION_MEMO_CAP <= 0:
            return self._search(assignment, locked, [])
        samples = self._samples
        read = [samples[k] for k in self._sample_keys]
        key = (assignment.core_of, locked, *map(id, read))
        memo = self._decisions
        entry = memo.get(key)
        if entry and all(map(operator.is_, entry[0], read)):
            for candidate in entry[2]:
                self._emit_candidate(*candidate)
            return entry[1]
        candidates: list[tuple] = []
        result = self._search(assignment, locked, candidates)
        if entry is None:
            if len(memo) >= DECISION_MEMO_CAP:
                memo.clear()
            memo[key] = _SEEN
        else:
            # The entry pins the samples, so no other object can take
            # their ids while it lives.
            memo[key] = (tuple(read), result, tuple(candidates))
        return result

    def _search(
        self,
        assignment: Assignment,
        locked: frozenset[int],
        candidates: list[tuple],
    ) -> Assignment:
        """The greedy loop; appends each candidate it weighs, as the
        arguments of :meth:`_emit_candidate`, to ``candidates``."""
        type_of = {
            i: assignment.core_type_of(i, self.machine)
            for i in range(self.num_apps)
        }
        swapped = True
        rounds = 0
        while swapped and rounds < self.num_apps:
            swapped = False
            rounds += 1
            deltas = {
                i: self.objective_value(i, _other(type_of[i]))
                - self.objective_value(i, type_of[i])
                for i in range(self.num_apps)
            }
            on_big = [
                i
                for i in range(self.num_apps)
                if type_of[i] == BIG and i not in locked
            ]
            on_small = [
                i
                for i in range(self.num_apps)
                if type_of[i] == SMALL and i not in locked
            ]
            if not on_big or not on_small:
                break
            mover = min(on_big + on_small, key=lambda i: deltas[i])
            other_side = on_small if mover in on_big else on_big
            partner = min(other_side, key=lambda i: deltas[i])
            total = sum(
                abs(self.objective_value(i, type_of[i]))
                for i in range(self.num_apps)
            )
            threshold = self.swap_threshold * total
            accepted = deltas[mover] + deltas[partner] < -threshold
            candidate = (
                mover, partner, deltas[mover], deltas[partner], total,
                threshold, accepted,
            )
            candidates.append(candidate)
            self._emit_candidate(*candidate)
            if accepted:
                assignment = assignment.with_swap(mover, partner)
                type_of[mover], type_of[partner] = (
                    type_of[partner],
                    type_of[mover],
                )
                swapped = True
        return assignment

    def _emit_candidate(
        self,
        mover: int,
        partner: int,
        delta_mover: float,
        delta_partner: float,
        total: float,
        threshold: float,
        accepted: bool,
    ) -> None:
        """Report one weighed swap to the recorder and the metrics."""
        if self.recorder is not None:
            self.recorder.candidate(
                mover=mover,
                partner=partner,
                delta_mover=delta_mover,
                delta_partner=delta_partner,
                delta_total=delta_mover + delta_partner,
                objective_total=total,
                threshold=threshold,
                accepted=accepted,
                reason=(
                    "net objective improvement clears swap threshold"
                    if accepted
                    else "net objective change within swap hysteresis"
                ),
            )
        reg = obs_metrics.ACTIVE
        if reg is not None:
            reg.counter(
                "sched.swap_candidates",
                outcome="accepted" if accepted else "rejected",
            ).inc()

    # -- observation -----------------------------------------------------

    def _trim_samples(self) -> dict[int, list]:
        """Cut the full observation-to-sample map to half its cap and
        return it.

        Most entries hold observations of computed segments that never
        recur, so entries that never replayed go first, least recently
        inserted first, then replayed ones, least recently replayed
        first.  Emptying the map instead would drop the samples of
        steady segments too, and the samples rebuilt for them would
        turn their decision keys into misses.
        """
        ranked = sorted(self._sample_of.items(), key=_replay_rank)
        kept = ranked[len(ranked) - DECISION_MEMO_CAP // 2:]
        self._sample_of = dict(kept)
        return self._sample_of

    def observe(
        self, plan: SegmentPlan, observations: Sequence[Observation]
    ) -> None:
        samples = self._samples
        known = self._sample_of
        self._observed += 1
        now = self._observed
        for obs in observations:
            # A replayed observation yields the sample it yielded before.
            entry = known.get(id(obs))
            if entry is not None and entry[0] is obs:
                sample = entry[1]
                sample.age_quanta = 0
                entry[2] = now
                entry[3] = True
            else:
                sample = observed_sample(obs)
                if sample is None:
                    continue
                if DECISION_MEMO_CAP > 0:
                    if len(known) >= DECISION_MEMO_CAP:
                        known = self._trim_samples()
                    known[id(obs)] = [obs, sample, now, False]
            samples[(obs.app_index, obs.core_type)] = sample
        if plan is not self._final_segment:
            return
        # End of quantum: update consecutive-on-type counters from the
        # main segment's core types.
        consecutive = self._consecutive
        last_type = self._last_type
        for obs in observations:
            i = obs.app_index
            if last_type.get(i) == obs.core_type:
                consecutive[i] += 1
            else:
                consecutive[i] = 1
        last_type = {obs.app_index: obs.core_type for obs in observations}
        self._last_type = last_type
        # An off-type sample taken during this quantum's sampling
        # segment (age still 0) satisfies the staleness rule: reset.
        for i, my_type in last_type.items():
            other = samples.get((i, _other(my_type)))
            if other is not None and other.age_quanta == 0:
                consecutive[i] = min(consecutive[i], 1)
        for sample in samples.values():
            sample.age_quanta += 1
