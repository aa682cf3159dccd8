"""Retry and failure policies for the campaign execution engine.

Large design-space sweeps run thousands of jobs; a single transient
worker failure (an OOM-killed process, a filesystem hiccup while
writing a cache entry) should not discard hours of completed work.
:class:`RetryPolicy` re-attempts individual jobs with capped
exponential backoff, and :class:`FailurePolicy` decides what a
permanent job failure means for the campaign as a whole.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FailurePolicy(enum.Enum):
    """What the engine does when a job exhausts its retries.

    * ``FAIL_FAST`` -- abort the campaign: every worker is killed, the
      jobs in flight and the undealt ones are recorded as cancelled (a
      serial campaign skips the rest), and :class:`CampaignError` is
      raised (with the partial
      :class:`~repro.runtime.engine.ExecutionReport` attached).
    * ``COLLECT`` -- record the failure, keep running every other job,
      and report all failures together at the end; completed results
      are preserved.
    """

    FAIL_FAST = "fail-fast"
    COLLECT = "collect"


@dataclass(frozen=True)
class RetryPolicy:
    """Per-job retry with capped exponential backoff.

    Attributes:
        max_attempts: total attempts per job (1 = no retry).
        base_delay_seconds: sleep after the first failed attempt.
        backoff_factor: multiplier applied per subsequent failure.
        max_delay_seconds: upper bound on any single backoff sleep.
    """

    max_attempts: int = 1
    base_delay_seconds: float = 0.05
    backoff_factor: float = 2.0
    max_delay_seconds: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_seconds < 0 or self.max_delay_seconds < 0:
            raise ValueError("backoff delays cannot be negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def delay(self, failed_attempts: int) -> float:
        """Backoff sleep after ``failed_attempts`` failures (1-based)."""
        if failed_attempts < 1:
            raise ValueError("failed_attempts must be at least 1")
        raw = self.base_delay_seconds * self.backoff_factor ** (
            failed_attempts - 1
        )
        return min(raw, self.max_delay_seconds)


class CampaignError(RuntimeError):
    """A campaign aborted (or, under ``COLLECT``, finished with
    failures the caller asked to be raised).

    Attributes:
        report: the partial
            :class:`~repro.runtime.engine.ExecutionReport`; completed
            results are preserved in it.
    """

    def __init__(self, report):
        self.report = report
        failures = report.failures
        detail = "; ".join(
            f"job {o.index} ({o.label}): {o.error}" for o in failures[:3]
        )
        if len(failures) > 3:
            detail += f"; ... {len(failures) - 3} more"
        super().__init__(
            f"{len(failures)} of {len(report.outcomes)} jobs failed: {detail}"
        )
