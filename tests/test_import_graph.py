"""The import graph stays light: a process loads only the modules its
code calls, and a forked engine worker imports nothing its parent did
not.  Each check runs in a fresh interpreter."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code: str, *args: str) -> object:
    """Run ``code`` in a fresh interpreter; the JSON it prints last."""
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def loaded_after(statement: str) -> set[str]:
    """Every module loaded after running ``statement``."""
    return set(run_python(
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(sys.modules)))"
    ))


def within(modules: set[str], *prefixes: str) -> list[str]:
    """The ``modules`` that are one of ``prefixes`` or inside one."""
    return sorted(
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    )


def test_package_inits_import_no_submodule():
    packages = sorted(
        f"repro.{init.parent.name}"
        for init in (SRC / "repro").glob("*/__init__.py")
        if init.parent.name != "cli"
    )
    loaded = loaded_after(f"import {', '.join(packages)}")
    assert within(loaded, "repro") == ["repro", *packages]


def test_engine_experiment_and_check_stay_below_the_upper_layers():
    loaded = loaded_after(
        "import repro.runtime.engine, repro.sim.experiment, repro.check"
    )
    assert within(
        loaded,
        "repro.service", "repro.validation", "repro.kernels",
        "repro.analysis", "repro.report",
        "repro.check.differential", "repro.check.golden",
        "repro.ace.faultinject", "repro.ace.predictor",
        "repro.sched.oracle", "asyncio",
    ) == []


def test_service_namespace_loads_no_asyncio():
    loaded = loaded_after(
        "from repro.service import OpenSystem, ServiceConfig"
    )
    assert "repro.service.server" in loaded
    assert within(loaded, "asyncio") == []


def test_every_module_imports_on_its_own():
    """Each module imports from an empty ``repro`` module table: no
    module relies on another having been imported first."""
    modules = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(
            ".__init__"
        )
        for path in (SRC / "repro").rglob("*.py")
    )
    code = f"""
import importlib, json, sys
failures = []
for name in {modules!r}:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as error:
        failures.append(f"{{name}}: {{error!r}}")
print(json.dumps(failures))
"""
    assert len(modules) > 100
    assert run_python(code) == []


def test_forked_engine_workers_import_no_repro_module(tmp_path):
    """A worker runs a 4B4S spec under each scheduler as
    ``_execute_job`` does (metrics on, result encoded and stored) and
    finds every module it calls already imported by its parent."""
    code = """
import json, sys
from repro.runtime.engine import ExecutionEngine, Job, _execute_job
from repro.runtime.retry import RetryPolicy
from repro.runtime.store import ResultStore
from repro.sim.campaign import RunSpec

MIX = ("soplex", "milc", "namd", "povray", "gcc", "mcf", "lbm", "hmmer")


def run_schedulers(worker):
    before = set(sys.modules)
    store = ResultStore(f"{sys.argv[1]}/{worker}")
    for index, scheduler in enumerate(
        ("random", "performance", "reliability", "modes")
    ):
        spec = RunSpec(machine="4B4S", benchmarks=MIX, scheduler=scheduler,
                       instructions=2_000_000)
        _execute_job(Job(index, spec, scheduler, spec.key()), RetryPolicy(),
                     None, collect_metrics=True, store=store)
    assert len(store.keys()) == 4
    return sorted(m for m in set(sys.modules) - before
                  if m.split(".")[0] == "repro")


print(json.dumps(ExecutionEngine(jobs=2).map_tasks(run_schedulers, range(2))))
"""
    assert run_python(code, str(tmp_path)) == [[], []]
