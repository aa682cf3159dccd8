"""Compare benchmark runs of a parent commit and a change.

    python3 benchmarks/e2e/compare.py --parent p0.json p1.json ... \\
        --change c0.json c1.json ...

Each file is the ``--out`` of one ``run.py`` invocation.  The i-th
parent file and the i-th change file form a pair; run them alternating
which side goes first, with the same seeds, and give at least ten
pairs.  Runs measured for different ``--seconds`` are refused.

For every workload and metric the report gives each side's median and
quartiles, the pairs the change won (ties count for neither side) and a
verdict:

* ``improved`` -- the change is better in at least 9/10 of the pairs
  and the medians differ by more than the parent's interquartile range;
* ``regressed`` -- the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- the parent's own spread (interquartile range over
  median) is wider than the bound, so no regression could be shown,
  unless every change run is better than every parent run;
* ``unchanged`` -- none of the above.

Per-layer metrics have no bound: they are ``regressed`` only by the
mirror image of the ``improved`` rule.  A workload whose change runs
failed more operations than its parent runs gains nothing: its
``improved`` verdicts read ``unchanged``.  The exit status is 1 when any
end-to-end metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    unit: str
    parent: tuple[float, float, float]  # q1, median, q3
    change: tuple[float, float, float]
    wins: int
    pairs: int
    verdict: str


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> tuple[str, int]:
    """Verdict and pair wins of one metric; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    iqr = q3 - q1
    gain = sign * (c_med - p_med)  # positive: the change is better
    pairs = len(parent)
    if wins >= 0.9 * pairs and gain > iqr:
        return "improved", wins
    if bound is None:
        if losses >= 0.9 * pairs and -gain > iqr:
            return "regressed", wins
        return "unchanged", wins
    scale = abs(p_med) or 1.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if iqr / scale > bound and not all_better:
        return "unresolved", wins
    if -gain / scale > bound:
        return "regressed", wins
    return "unchanged", wins


def load_runs(paths: list[str]) -> tuple[list[dict[tuple[str, int], dict]],
                                          set[float]]:
    """Per file ``{(workload, trace): result}``, and the set of
    ``--seconds`` the runs were measured for."""
    files, seconds = [], set()
    for path in paths:
        data = json.loads(Path(path).read_text())
        files.append(
            {(run["workload"], int(run["trace"])): run["result"]
             for run in data["runs"]}
        )
        seconds.update(run["seconds"] for run in data["runs"])
    return files, seconds


def compare(parent_files: list[dict], change_files: list[dict],
            spec: dict) -> list[Row]:
    if len(parent_files) != len(change_files):
        raise ValueError("parent and change need the same number of runs")
    if len(parent_files) < MIN_PAIRS:
        raise ValueError(f"need at least {MIN_PAIRS} pairs")
    declared = {m["name"]: (m, m.get("bound")) for m in spec["end_to_end"]}
    declared.update({m["name"]: (m, None) for m in spec["per_layer"]})
    rows = []
    keys = sorted(set(parent_files[0]) & set(change_files[0]))
    for key in keys:
        parents = [f[key] for f in parent_files]
        changes = [f[key] for f in change_files]
        more_failures = (
            sum(r["failed"] for r in changes) > sum(r["failed"] for r in parents)
        )
        for metric in parents[0]["metrics"]:
            info, bound = declared[metric]
            p = [r["metrics"][metric]["value"] for r in parents]
            c = [r["metrics"][metric]["value"] for r in changes]
            result, wins = verdict(p, c, info["better"], bound)
            if result == "improved" and more_failures:
                result = "unchanged"
            rows.append(Row(key[0], metric, info["unit"], quartiles(p),
                            quartiles(c), wins, len(p), result))
    return rows


def format_rows(rows: list[Row]) -> str:
    header = ("workload", "metric", "parent q1/med/q3", "change q1/med/q3",
              "wins", "verdict")
    lines = [header]
    for row in rows:
        lines.append((
            row.workload,
            f"{row.metric} [{row.unit}]",
            "/".join(f"{v:.4g}" for v in row.parent),
            "/".join(f"{v:.4g}" for v in row.change),
            f"{row.wins}/{row.pairs}",
            row.verdict,
        ))
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
        for line in lines
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        parents, parent_seconds = load_runs(args.parent)
        changes, change_seconds = load_runs(args.change)
        if len(parent_seconds | change_seconds) > 1:
            raise ValueError("runs were measured for different --seconds: "
                             f"{sorted(parent_seconds | change_seconds)}")
        rows = compare(parents, changes, spec)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_rows(rows))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    regressed = any(
        r.verdict == "regressed" and r.metric in end_to_end for r in rows
    )
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
