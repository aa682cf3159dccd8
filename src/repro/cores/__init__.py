"""Core performance models: mechanistic and trace-driven pipelines."""

from repro import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".base": (
        "ACE_STRUCTURES", "ISOLATED", "CoreModel", "MemoryEnvironment",
        "QuantumResult",
    ),
    ".mechanistic": (
        "MechanisticCoreModel", "PhaseAnalysis", "analyze_big_phase",
        "analyze_phase", "analyze_small_phase",
    ),
})
