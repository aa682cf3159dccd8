"""Multicore simulation engine: isolated runs, full runs, sweeps."""

from repro import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".experiment": (
        "SCHEDULER_NAMES", "average_ratio", "geomean_ratio",
        "make_scheduler", "run_workload", "sweep",
    ),
    ".isolated": (
        "IsolatedRun", "IsolatedStats", "ReferenceTimes", "isolated_stats",
        "run_isolated",
    ),
    ".multicore": ("MulticoreSimulation", "default_models"),
    ".results": ("AppRunRecord", "RunResult", "TimelinePoint"),
})
