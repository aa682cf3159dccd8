"""Activity-based power model (the McPAT substitute)."""

from repro import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".model": ("PowerBreakdown", "PowerModel"),
})
