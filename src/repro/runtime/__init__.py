"""Campaign execution runtime: worker-dealing engine, events, retry.

This package is the single execution path for campaigns, sweeps,
benches and the CLI: it fans independent simulation runs out across
CPU cores, retries transient worker failures, and narrates progress
through a structured event stream.  :mod:`repro.runtime.shard` scales
one level up: a coordinator partitions a campaign's keyspace across
independent worker processes and merges their stores, logs, and
metrics back into one deterministic result (``docs/sharding.md``).
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
    InProcessShardTransport,
    ProcessShardTransport,
    ShardCoordinator,
    ShardPlan,
    ShardProtocolError,
    ShardTransport,
    partition_indices,
    run_worker,
    shard_of,
    worker_main,
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
    "InProcessShardTransport",
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
    "ProcessShardTransport",
    "ResultStore",
    "ResumeError",
    "ResumeState",
    "RetryPolicy",
    "ShardCoordinator",
    "ShardPlan",
    "ShardProtocolError",
    "ShardTransport",
    "StderrProgressSink",
    "UnknownEvent",
    "default_jobs",
    "event_from_dict",
    "merge_event_streams",
    "partition_indices",
    "read_events",
    "read_events_merged",
    "replay_timings",
    "run_worker",
    "shard_of",
    "worker_main",
]
