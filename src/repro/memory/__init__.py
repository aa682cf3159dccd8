"""Cache and memory substrate: caches, hierarchy, interference."""

from repro import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".cache": ("CacheStats", "SetAssociativeCache"),
    ".hierarchy": ("AccessOutcome", "CacheHierarchy"),
    ".interference": (
        "ApplicationDemand", "InterferenceModel", "bandwidth_multiplier",
        "llc_shares",
    ),
})
