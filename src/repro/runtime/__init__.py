"""Campaign execution runtime: worker-dealing engine, events, retry.

This package is the single execution path for campaigns, sweeps,
benches and the CLI: it fans independent simulation runs out across
CPU cores, retries transient worker failures, and narrates progress
through a structured event stream.  :mod:`repro.runtime.shard` runs a
campaign as a fleet: one engine whose workers are the shards, plus the
fleet's live status and the shard count in the plan
(``docs/sharding.md``).
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
    CampaignCheckpoint,
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
from repro.runtime.retry import (
    DEFAULT_RETRY,
    NO_RETRY,
    CampaignError,
    FailurePolicy,
    RetryPolicy,
)
from repro.runtime.shard import (
    FleetStatus,
    FleetStatusServer,
    ShardCoordinator,
)
from repro.runtime.store import ResultStore

__all__ = [
    "CallbackSink",
    "CampaignCheckpoint",
    "CampaignError",
    "CampaignFinished",
    "CampaignPlan",
    "CampaignStarted",
    "CheckFailed",
    "DEFAULT_RETRY",
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
    "NO_RETRY",
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
