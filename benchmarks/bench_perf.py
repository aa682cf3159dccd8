"""Simulation hot-path performance benchmarks (`repro bench`).

Unlike the figure benches, this bench measures the *simulator itself*:
trace generation, the trace cache, batched cache access, the OoO and
in-order window kernels against their straight-line references, and
a sweep on 1, 2 and 4 engine workers.  It writes ``BENCH_PERF.json`` next
to the repository root (override with ``--output``) so the performance
trajectory is tracked PR-over-PR; see docs/performance.md.

Usage::

    python benchmarks/bench_perf.py [--quick] [--output PATH]
                                    [--min-ooo-speedup FACTOR]
"""

from __future__ import annotations

import sys

from repro.cli.main import main

if __name__ == "__main__":
    raise SystemExit(main(["bench", *sys.argv[1:]]))
