"""repro: reproduction of "Reliability-Aware Scheduling on Heterogeneous
Multicore Processors" (Naithani, Eyerman, Eeckhout; HPCA 2017).

The package is organized bottom-up:

* ``repro.config`` -- core/machine configurations (Table 2).
* ``repro.isa`` / ``repro.workloads`` -- instruction traces and the
  synthetic SPEC CPU2006-like benchmark suite.
* ``repro.memory`` -- caches, hierarchy, shared-resource interference.
* ``repro.cores`` -- mechanistic and trace-driven core models.
* ``repro.kernels`` -- vectorized window kernels behind the
  trace-driven models, and the trace cache.
* ``repro.ace`` -- the ACE-bit counter architecture and its cost.
* ``repro.metrics`` -- AVF, SER, wSER, SSER, STP.
* ``repro.power`` -- the activity-based power model.
* ``repro.obs`` -- telemetry: metrics, spans, decision traces,
  flight recording, OpenMetrics export.
* ``repro.sched`` -- random / performance- / reliability-optimized and
  oracle schedulers (the paper's contribution).
* ``repro.sim`` -- the quantum-driven multicore simulation engine.
* ``repro.runtime`` -- the campaign engine: workers, events, result
  store, resume.
* ``repro.service`` -- the open-system scheduler service.
* ``repro.validation`` -- cross-model agreement checks.
* ``repro.analysis`` -- hardening and sensitivity studies.
* ``repro.check`` -- invariants, differential fuzzing, goldens.
* ``repro.report`` -- text tables, charts and figure renderers.
* ``repro.cli`` -- the ``repro`` command.

A package imports none of its modules: each name it exports is
imported on first use (:func:`lazy_namespace`), so a process loads
only the modules its code calls.
"""

import importlib
import sys

__version__ = "1.0.0"


def lazy_namespace(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` of a package whose names
    resolve on first use (PEP 562).

    ``exports`` maps each defining module, relative to ``package``
    (``".counters"``), to the names the package re-exports from it.  A
    name that is its module's own last part is that module
    (``{".tracing": ("tracing", "span")}``).  The first lookup of a
    name imports its module and caches the value in the package, so
    later lookups are plain attribute hits.  Any other name resolves
    to the submodule of that name if there is one, else raises
    :class:`AttributeError`, as ``from package import submodule`` and
    ``hasattr`` expect.
    """
    owner = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            submodule = f"{package}.{name}"
            if not name.startswith("__"):
                try:
                    return importlib.import_module(submodule)
                except ModuleNotFoundError as error:
                    if error.name != submodule:
                        raise
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = importlib.import_module(module, package)
        if module != "." + name:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__, list(owner)
