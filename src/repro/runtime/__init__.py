"""Campaign execution runtime: worker-dealing engine, events, retry.

This package is the single execution path for campaigns, sweeps,
benches and the CLI: one :class:`ExecutionEngine` fans independent
simulation runs out across CPU cores, retries transient worker
failures, and narrates progress through a structured event stream.
:mod:`repro.runtime.shard` watches that stream for a fleet's live
status and metrics (``repro sweep --jobs N --status-socket``,
``docs/sharding.md``).
"""

from repro.runtime.engine import (
    ExecutionEngine,
    ExecutionReport,
    FaultPlan,
    InjectedFault,
    Job,
    JobOutcome,
    default_jobs,
)
from repro.runtime.events import (
    CallbackSink,
    CampaignFinished,
    CampaignPlan,
    CampaignStarted,
    CheckFailed,
    Event,
    EventSink,
    JobCached,
    JobFailed,
    JobFinished,
    JobStarted,
    JobTiming,
    JsonlEventSink,
    MetricsSnapshot,
    StderrProgressSink,
    UnknownEvent,
    event_from_dict,
    merge_event_streams,
    read_events,
    read_events_merged,
    replay_timings,
)
from repro.runtime.resume import ResumeError, ResumeState
from repro.runtime.retry import CampaignError, FailurePolicy, RetryPolicy
from repro.runtime.shard import (
    FleetStatus,
    FleetStatusServer,
    ShardCoordinator,
)
from repro.runtime.store import ResultStore

__all__ = [
    "CallbackSink",
    "CampaignError",
    "CampaignFinished",
    "CampaignPlan",
    "CampaignStarted",
    "CheckFailed",
    "Event",
    "EventSink",
    "ExecutionEngine",
    "ExecutionReport",
    "FailurePolicy",
    "FaultPlan",
    "FleetStatus",
    "FleetStatusServer",
    "InjectedFault",
    "Job",
    "JobCached",
    "JobFailed",
    "JobFinished",
    "JobOutcome",
    "JobStarted",
    "JobTiming",
    "JsonlEventSink",
    "MetricsSnapshot",
    "ResultStore",
    "ResumeError",
    "ResumeState",
    "RetryPolicy",
    "ShardCoordinator",
    "StderrProgressSink",
    "UnknownEvent",
    "default_jobs",
    "event_from_dict",
    "merge_event_streams",
    "read_events",
    "read_events_merged",
    "replay_timings",
]
