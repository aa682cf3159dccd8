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

from repro import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".trace_cache": ("cache_stats", "cached_generate_trace", "clear_cache"),
    ".window": ("inorder_run_cycles", "ooo_simulate_window"),
})
