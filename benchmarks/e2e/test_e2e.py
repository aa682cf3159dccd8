"""Tests of the end-to-end benchmark at toy sizes.

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import inspect
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def toy(name: str) -> dict:
    """Input sizes that run each workload's round in well under a second."""
    return {
        "paper_fig06": {"instructions": 2_000_000, "mixes": 6},
        "service_open": {"arrivals": 40, "instructions": 1_000_000},
        "fleet_2w": {"instructions": 200_000, "mixes": 1},
        "trace_validate": {"instructions": 4_000,
                           "compare_instructions": 2_000},
    }[name]


@pytest.fixture(autouse=True)
def _out_in_tmp(tmp_path, monkeypatch):
    """Span files and fleet stores go under the test's directory."""
    monkeypatch.setattr(workloads, "OUT", tmp_path / "out")


def test_workload_table_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_exactly_the_declared_metrics(name, trace, tmp_path):
    result = run.run_one(
        name, 0, 0.0, trace, SPEC, {"digests": {}},
        sizes=toy(name), probes=1, min_rounds=2,
    )
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(NAME.match(key) for key in result["metrics"])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert (tmp_path / "out" / f"spans.{name}.json").is_file()
    if name == "fleet_2w":
        assert not any((tmp_path / "out").glob("fleet-*"))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_have_one_digest(name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(1, **toy(name))
    plain = workload.measure(inputs, 0.0, min_rounds=3)
    timer = layers.LayerTimer(layers.default_layers())
    with timer:
        traced = workload.measure(inputs, 0.0, min_rounds=3,
                                  root=lambda: timer.root(name))
    assert plain.digests and traced.digests == plain.digests
    assert not timer.absent
    # Self times plus the unattributed rest account for the root time.
    total = sum(s.self_seconds for s in timer.stats.values())
    total += timer.unattributed_seconds
    assert total == pytest.approx(timer.root_seconds, rel=1e-9)


def test_layer_timer_restores_every_attribute():
    timer = layers.LayerTimer(layers.default_layers())
    with pytest.raises(RuntimeError):
        with timer:
            patched = timer.patched_originals()
            assert patched
            for owner, attribute, original in patched:
                assert inspect.getattr_static(owner, attribute) is not original
            raise RuntimeError("body fails")
    for owner, attribute, original in patched:
        assert inspect.getattr_static(owner, attribute) is original
    from repro.sched.performance import PerformanceScheduler

    # Inherited methods were patched on the base class only.
    assert "plan_quantum" not in vars(PerformanceScheduler)


def test_missing_targets_are_reported_absent():
    timer = layers.LayerTimer((
        layers.Layer("gone", ("no_such_package.module.function",
                              "repro.sim.multicore.NoSuchClass.run")),
    ))
    with timer:
        pass
    assert timer.absent == [
        "no_such_package.module.function",
        "repro.sim.multicore.NoSuchClass.run",
    ]


def _inner(n):
    return n


def _outer(n):
    # Recursion into an active layer is not counted again.
    return _outer(n - 1) if n > 0 else _inner(0)


def test_self_time_and_reentry():
    timer = layers.LayerTimer((
        layers.Layer("outer", (f"{__name__}._outer",)),
        layers.Layer("inner", (f"{__name__}._inner",),
                     repeat_key=lambda n: n),
    ))
    with timer:
        _outer(1)  # outside any root block: not timed
        with timer.root("test"):
            _outer(3)
            _inner(0)
    outer, inner = timer.stats["outer"], timer.stats["inner"]
    assert (outer.calls, inner.calls, inner.repeats) == (1, 2, 1)
    assert outer.busy_seconds >= outer.self_seconds
    tree = timer.tree()
    (root,) = tree["children"]
    assert root["name"] == "test"
    assert [c["name"] for c in root["children"]] == ["inner", "outer"]


def _side(values):
    """compare.py input: one loaded ``--out`` file per value."""
    return [
        {("w", 0): {"failed": 0, "metrics": {
            "quantum_us": {"value": v, "unit": "us"}}}}
        for v in values
    ]


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([100 + i * 0.1 for i in range(10)],
         [80 + i * 0.1 for i in range(10)], "improved"),
        ([100 + i * 0.1 for i in range(10)],
         [130 + i * 0.1 for i in range(10)], "regressed"),
        ([100, 140, 70, 120, 90, 60, 130, 100, 80, 150],
         [101, 139, 71, 119, 91, 61, 131, 99, 81, 149], "unresolved"),
        ([100 + (i % 3) for i in range(10)],
         [101 - (i % 3) for i in range(10)], "unchanged"),
    ],
)
def test_compare_verdicts(parent, change, expected):
    spec = {"end_to_end": [{"name": "quantum_us", "unit": "us",
                            "better": "lower", "bound": 0.15}],
            "per_layer": []}
    (row,) = compare.compare(_side(parent), _side(change), spec)
    assert row.verdict == expected


def test_compare_needs_ten_pairs():
    with pytest.raises(ValueError):
        compare.compare(_side([1.0] * 9), _side([1.0] * 9), SPEC)


def test_digest_gate():
    name = "trace_validate"
    rounds = workloads.WORKLOADS[name].digest_rounds
    digests = [f"{i:016x}" for i in range(rounds)]
    good = {"digests": {name: run.combined_digest(digests)}}
    assert run.digest_mismatch(name, 0, digests, good) is None
    assert run.digest_mismatch(name, 1, digests, {"digests": {name: "x"}}) is None
    assert "committed x" in run.digest_mismatch(
        name, 0, digests, {"digests": {name: "x"}}
    )
    # Too few rounds to check is a failure, not a pass.
    assert "unchecked" in run.digest_mismatch(name, 0, digests[:-1], good)


def test_seed_zero_runs_enough_rounds_to_check_the_digest():
    name = "trace_validate"
    rounds = workloads.WORKLOADS[name].digest_rounds
    result = run.run_one(
        name, 0, 0.0, False, SPEC, {"digests": {name: "x"}},
        sizes=toy(name), probes=1,
    )
    # The toy sizes cannot reproduce the committed digest, but the
    # zero budget still ran every round the check needs.
    assert result["attempted"] >= rounds
    assert result["failed"] == 1 and not result["correct"]


def test_compare_refuses_different_run_lengths(tmp_path):
    def write(side: str, index: int, seconds: float) -> str:
        path = tmp_path / f"{side}{index}.json"
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
            "quantum_us": {"value": 100.0 + index, "unit": "us"}}}
        path.write_text(json.dumps({"runs": [
            {"workload": "w", "seed": index, "trace": 0,
             "seconds": seconds, "result": result}]}))
        return str(path)

    parents = [write("p", i, 20.0) for i in range(10)]
    assert compare.main(["--parent", *parents, "--change",
                         *[write("c", i, 20.0) for i in range(10)]]) == 0
    assert compare.main(["--parent", *parents, "--change",
                         *[write("c", i, 10.0) for i in range(10)]]) == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "paper_fig06", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
