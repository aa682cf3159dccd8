"""Resume-state reconstruction for durable campaigns.

A durable campaign leaves three pieces behind: the result store (the
completed results, one atomic file per spec key), and in its JSONL
event log the campaign plan (:class:`~repro.runtime.events.CampaignPlan`:
which jobs were planned, under which settings) and the terminal job
events that follow it (:class:`~repro.runtime.events.JobCached`,
:class:`~repro.runtime.events.JobFinished`,
:class:`~repro.runtime.events.JobFailed`).  :class:`ResumeState`
replays the log into per-key statuses so
:meth:`ExecutionEngine.run_many(resume_from=...)
<repro.runtime.engine.ExecutionEngine.run_many>` and the ``repro
resume`` CLI verb can skip completed jobs and re-run only pending or
failed ones, producing a report identical to an uninterrupted run.

The reconstruction is conservative: a job counts as completed only if
the log says so *and* its result is actually loadable from the store
(the engine re-verifies the second half through its normal cache
path), so a terminal event that outlived a lost store entry costs one
recomputation, never a wrong result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.runtime.events import (
    CampaignPlan,
    Event,
    JobFailed,
    TERMINAL_EVENTS,
    read_events,
)
from repro.sim.campaign import RunSpec


class ResumeError(ValueError):
    """An event log cannot be resumed (no plan record, or the log
    does not describe the campaign the caller is trying to resume)."""


@dataclass
class ResumeState:
    """Everything an interrupted campaign's log says about its jobs.

    Attributes:
        specs: the planned runs, in submission order.
        keys: ``RunSpec.key()`` per spec (result-store file names).
        labels: display labels per spec.
        store: result-store directory recorded in the plan (``None``
            for campaigns that ran without one -- resumable, but every
            completed job must be recomputed).
        machine: plan's single-machine override descriptor, if any.
        failure_policy: engine failure-policy value from the plan.
        timeout_seconds: engine per-job timeout from the plan.
        max_attempts: engine retry attempts from the plan.
        shards: the engine's worker count recorded in the plan
            (``None`` in logs written before the engine recorded it).
        metrics: whether the campaign collected per-job metrics.
        spans: whether the campaign collected per-job span trees.
        completed: keys the log records as successfully finished.
        failed: keys whose last terminal event is a failure.
    """

    specs: list[RunSpec]
    keys: list[str]
    labels: list[str]
    store: str | None = None
    machine: dict | None = None
    failure_policy: str = "fail-fast"
    timeout_seconds: float | None = None
    max_attempts: int = 1
    shards: int | None = None
    metrics: bool = False
    spans: bool = False
    completed: set[str] = field(default_factory=set)
    failed: set[str] = field(default_factory=set)

    @property
    def pending(self) -> set[str]:
        """Keys with no terminal status: never started or in flight
        when the campaign died."""
        return set(self.keys) - self.completed - self.failed

    def summary(self) -> str:
        return (
            f"{len(self.keys)} job(s): {len(self.completed)} completed, "
            f"{len(self.failed)} failed, {len(self.pending)} pending"
        )

    @classmethod
    def from_events(cls, events: Sequence[Event]) -> "ResumeState":
        """Reconstruct resume state from a replayed event stream.

        The *last* :class:`CampaignPlan` wins (a resumed campaign
        appends a fresh plan to the same log), and only events after
        it count.  Per-job status comes from the terminal job events;
        for a key with several, the most recent one decides.  Events
        of kinds this version does not know (such as the
        ``campaign_checkpoint`` lines of older logs, which restated
        the terminal events) change nothing.
        """
        plan: CampaignPlan | None = None
        plan_at = -1
        for position, event in enumerate(events):
            if isinstance(event, CampaignPlan):
                plan, plan_at = event, position
        if plan is None:
            raise ResumeError(
                "event log has no campaign plan record; only campaigns "
                "run with this version's engine (which emits one per "
                "run) can be resumed"
            )
        specs = [RunSpec.from_dict(data) for data in plan.specs]
        state = cls(
            specs=specs,
            keys=list(plan.keys),
            labels=list(plan.labels),
            store=plan.store,
            machine=plan.machine,
            failure_policy=plan.failure_policy,
            timeout_seconds=plan.timeout_seconds,
            max_attempts=plan.max_attempts,
            shards=plan.shards,
            metrics=plan.metrics,
            spans=plan.spans,
        )
        failed: dict[str, bool] = {}
        for event in events[plan_at + 1:]:
            if (
                isinstance(event, TERMINAL_EVENTS)
                and 0 <= event.index < len(state.keys)
            ):
                failed[state.keys[event.index]] = isinstance(event, JobFailed)
        state.completed = {key for key, bad in failed.items() if not bad}
        state.failed = {key for key, bad in failed.items() if bad}
        return state

    @classmethod
    def load(cls, path: str | Path) -> "ResumeState":
        """Reconstruct resume state from a JSONL event log on disk.

        A truncated final line (the usual signature of a SIGKILL
        mid-append) is tolerated by :func:`read_events`; the job whose
        terminal event was lost simply re-runs.
        """
        return cls.from_events(read_events(path))

    def check_specs(self, specs: Sequence[RunSpec]) -> None:
        """Verify ``specs`` matches the plan this state was built from."""
        keys = [spec.key() for spec in specs]
        if keys != self.keys:
            raise ResumeError(
                f"resume state describes {len(self.keys)} job(s) that do "
                f"not match the {len(keys)} spec(s) being run; refusing "
                "to mix results from different campaigns"
            )
