"""Synthetic SPEC CPU2006-like workload substrate."""

from repro import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".characteristics": (
        "BenchmarkProfile", "InstructionMix", "PhaseCharacteristics",
        "uniform_profile",
    ),
    ".spec2006": (
        "BENCHMARK_NAMES", "SIMPOINT_INSTRUCTIONS", "SUITE", "benchmark",
        "benchmarks_by_class", "big_core_avf", "classify_benchmarks",
    ),
})
