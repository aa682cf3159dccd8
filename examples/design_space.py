#!/usr/bin/env python3
"""Design-space exploration: where does reliability-aware scheduling pay?

Sweeps HCMP topologies (1B3S / 2B2S / 3B1S) and small-core frequency
settings for one workload mix, comparing the three schedulers on SSER,
STP and power.  The runs are one campaign: a list of ``RunSpec``s run
by ``ExecutionEngine.run_many`` over a ``ResultStore``
(``.repro_cache/``), so re-running the exploration after the first
pass is instant -- the pattern to copy for your own studies.

Usage:
    python examples/design_space.py [instructions-per-benchmark]
"""

import sys
from pathlib import Path

from repro.power import PowerModel
from repro.report import format_table, grouped_bar_chart
from repro.runtime import ExecutionEngine, ResultStore
from repro.sim.campaign import RunSpec

WORKLOAD = ("milc", "leslie3d", "mcf", "sjeng")
MACHINES = ("1B3S", "2B2S", "3B1S")
FREQUENCIES = (2.66, 1.33)
SCHEDULERS = ("random", "performance", "reliability")
DEFAULT_INSTRUCTIONS = 100_000_000


def main() -> None:
    instructions = (
        int(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_INSTRUCTIONS
    )
    configs = [(machine, freq) for machine in MACHINES for freq in FREQUENCIES]
    specs = [
        RunSpec(
            machine=machine,
            benchmarks=WORKLOAD,
            scheduler=scheduler,
            instructions=instructions,
            small_frequency_ghz=freq if freq != 2.66 else None,
        )
        for machine, freq in configs
        for scheduler in SCHEDULERS
    ]
    store = ResultStore(Path(".repro_cache") / "design_space")
    report = ExecutionEngine().run_many(specs, store=store)
    rows = []
    chart_groups = {}
    for position, (machine, freq) in enumerate(configs):
        first = position * len(SCHEDULERS)
        results = dict(
            zip(SCHEDULERS, report.results[first:first + len(SCHEDULERS)])
        )
        power = PowerModel(specs[first].build_machine())
        rel, rnd = results["reliability"], results["random"]
        perf = results["performance"]
        label = f"{machine}@{freq}G"
        rows.append([
            label,
            float(rel.sser / rnd.sser),
            float(rel.sser / perf.sser),
            float(rel.stp / perf.stp),
            float(
                power.run_power(rel).chip_watts
                / power.run_power(perf).chip_watts
            ),
        ])
        chart_groups[label] = {
            "perf-opt": perf.sser / rnd.sser,
            "rel-opt": rel.sser / rnd.sser,
        }

    print(f"workload: {', '.join(WORKLOAD)} "
          f"({instructions / 1e6:.0f} M instructions each)\n")
    print(format_table(
        ["config", "SSER vs random", "SSER vs perf-opt",
         "STP vs perf-opt", "chip W vs perf-opt"],
        rows,
    ))
    print("\nnormalized SSER by configuration (vs random, lower is better):")
    print(grouped_bar_chart(chart_groups, width=40))
    print(f"\ncampaign cache: {report.cache_hits} hits, "
          f"{report.executed} misses ({store.directory})")


if __name__ == "__main__":
    main()
