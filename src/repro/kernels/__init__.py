"""Vectorized hot-path kernels for the trace-driven simulation.

- :mod:`repro.kernels.window` -- one-pass window kernels backing
  ``OutOfOrderCoreModel.simulate_window`` and
  ``InOrderCoreModel.run_cycles``.
- :mod:`repro.kernels.reference` -- the pre-kernel straight-line
  implementations, kept verbatim as correctness oracles.
- :mod:`repro.kernels.trace_cache` -- bounded memoization of
  ``generate_trace`` for sweeps.

See docs/performance.md for the design and measured speedups.
"""

from repro.kernels.trace_cache import (
    cache_stats,
    cached_generate_trace,
    clear_cache,
)
from repro.kernels.window import inorder_run_cycles, ooo_simulate_window

__all__ = [
    "cache_stats",
    "cached_generate_trace",
    "clear_cache",
    "inorder_run_cycles",
    "ooo_simulate_window",
]
