"""Campaign execution runtime: worker-dealing engine, events, retry.

This package is the single execution path for campaigns, sweeps,
benches and the CLI: one :class:`ExecutionEngine` fans independent
simulation runs out across CPU cores, retries transient worker
failures, and narrates progress through a structured event stream.
:mod:`repro.runtime.shard` watches that stream for a fleet's live
status and metrics (``repro sweep --jobs N --status-socket``,
``docs/sharding.md``).
"""

from repro import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".engine": (
        "ExecutionEngine", "ExecutionReport", "FaultPlan", "InjectedFault",
        "Job", "JobOutcome", "default_jobs",
    ),
    ".events": (
        "CallbackSink", "CampaignFinished", "CampaignPlan", "CampaignStarted",
        "CheckFailed", "Event", "EventSink", "JobCached", "JobFailed",
        "JobFinished", "JobStarted", "JobTiming", "JsonlEventSink",
        "MetricsSnapshot", "StderrProgressSink", "UnknownEvent",
        "event_from_dict", "merge_event_streams", "read_events",
        "read_events_merged", "replay_timings",
    ),
    ".resume": ("ResumeError", "ResumeState"),
    ".retry": ("CampaignError", "FailurePolicy", "RetryPolicy"),
    ".shard": ("FleetStatus", "FleetStatusServer", "ShardCoordinator"),
    ".store": ("ResultStore",),
})
