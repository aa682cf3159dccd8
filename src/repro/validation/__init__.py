"""Validation: cross-model agreement checks."""

from repro import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".crossmodel": (
        "DEFAULT_BENCHMARKS", "BenchmarkAgreement", "ModelAgreement",
        "compare_models",
    ),
})
