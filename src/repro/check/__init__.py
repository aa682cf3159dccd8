"""Always-on correctness checking beside the fast simulation path.

The campaign runtime executes far more simulation per run than any
human can eyeball, so this package machine-checks that results still
obey the paper's own math:

* :mod:`repro.check.invariants` -- a registry of named, severity-tagged
  predicates over run results, ABC stacks, schedules and oracle
  enumerations, reported through :class:`CheckReport`.
* :mod:`repro.check.differential` -- a seeded differential fuzzer that
  generates randomized traces and workload mixes and cross-checks the
  trace-driven pipeline models against the mechanistic model via the
  :mod:`repro.validation.crossmodel` rank-agreement criterion plus
  absolute tolerance gates.
* :mod:`repro.check.golden` -- a golden regression corpus freezing
  small-workload outputs of the figure pipelines and comparing new
  runs field-by-field with explicit tolerances.

The :class:`~repro.runtime.engine.ExecutionEngine` accepts the
:func:`default_run_checks` hook (``checks=``) to validate every job's
result as it completes, and ``repro check`` runs the fuzzer and the
golden comparison from the command line.
"""

from repro import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".invariants": (
        "CheckReport", "Invariant", "Severity", "Violation",
        "check_decision_trace", "check_mode_none", "check_mode_outcome",
        "check_mode_schedule", "check_oracle", "check_resume", "check_run",
        "check_schedule", "check_segment_paths", "check_service",
        "check_stack", "default_run_checks", "merge_reports",
        "registered_invariants",
    ),
    ".differential": ("FuzzReport", "fuzz"),
    ".golden": (
        "DEFAULT_GOLDEN_DIR", "GOLDEN_PIPELINES", "compare_goldens",
        "regenerate_goldens",
    ),
})
