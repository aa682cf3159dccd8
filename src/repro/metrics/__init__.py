"""Reliability (AVF/SER/wSER/SSER) and performance (STP/ANTT) metrics."""

from repro import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".performance": (
        "ApplicationPerformance", "average_normalized_turnaround", "ipc",
        "normalize_cpi_stack", "system_throughput",
    ),
    ".reliability": (
        "DEFAULT_IFR", "ApplicationReliability", "SserBreakdown", "avf",
        "mttf", "soft_error_rate", "sser", "sser_breakdown", "system_ser",
        "weighted_ser",
    ),
})
