"""Analyses: robustness and design studies over the reproduction."""

from repro import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".hardening": (
        "HardeningOption", "HardeningPlan", "greedy_plan",
        "hardening_options", "suite_ace_profile",
    ),
    ".sensitivity": ("SensitivityPoint", "sweep_assumptions"),
})
