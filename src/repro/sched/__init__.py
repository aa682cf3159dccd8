"""Schedulers: random, reliability-/performance-optimized, oracle."""

from repro import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".base": (
        "PARKED", "Assignment", "Observation", "Scheduler", "SegmentPlan",
    ),
    ".constrained": ("ConstrainedReliabilityScheduler",),
    ".oversubscribed": ("OversubscribedReliabilityScheduler",),
    ".oracle": (
        "SchedulePrediction", "StaticScheduler", "best_sser_schedule",
        "best_stp_schedule", "enumerate_schedules", "predict",
    ),
    ".performance": ("PerformanceScheduler",),
    ".random_sched": ("RandomScheduler",),
    ".reliability": ("ReliabilityScheduler",),
    ".sampling": ("CoreTypeSample", "SamplingScheduler"),
    ".variants": ("ExhaustiveReliabilityScheduler", "RawSerScheduler"),
    ".modes": (
        "MODES", "ModeAwareReliabilityScheduler", "ModeOutcome",
        "ModeSchedule", "ProtectionMode", "apply_modes", "parse_mode",
    ),
})
