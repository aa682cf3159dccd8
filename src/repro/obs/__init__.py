"""Unified telemetry for the reproduction: metrics, spans, decisions,
trace contexts, flight recording, and OpenMetrics export.

Independent, individually-activatable layers:

* :mod:`repro.obs.metrics` -- process-local labeled metrics registry
  (counters, gauges, histograms, timers) with mergeable snapshots so
  per-worker metrics flow back through the runtime engine.
* :mod:`repro.obs.tracing` -- aggregating span tracer producing nested
  wall-time trees (``with span("simulate_window", core="big"): ...``).
* :mod:`repro.obs.decisions` -- structured per-quantum scheduler
  decision traces that can be replayed and explained
  (``repro explain``).
* :mod:`repro.obs.context` -- ambient :class:`TraceContext`
  (campaign / worker slot / run key / parent span) stamped onto every
  runtime event.
* :mod:`repro.obs.flight` -- crash flight recorder: a bounded ring of
  recent activity dumped as a postmortem bundle when a job dies
  (``repro postmortem``).
* :mod:`repro.obs.openmetrics` -- deterministic OpenMetrics text
  exposition of metric snapshots and fleet status
  (``repro stats --openmetrics``, ``repro top``).

All layers are off by default and cost one global load + comparison
per instrumentation site when disabled (gated <3% on the OoO and
in-order kernel paths by ``repro bench``).  See docs/observability.md.
"""

from repro import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".context": ("context", "TraceContext"),
    ".flight": ("flight", "FlightRecorder"),
    ".decisions": (
        "DECISION_TRACE_SCHEMA", "DecisionTraceRecorder", "QuantumRecord",
        "ReplayError", "SwapCandidate", "decompose_swaps", "format_trace",
        "read_trace", "replay_trace", "write_trace",
    ),
    ".metrics": (
        "metrics", "Counter", "Gauge", "Histogram", "MetricsRegistry",
        "RegistrySnapshot", "Timer",
    ),
    ".openmetrics": ("openmetrics",),
    ".tracing": ("tracing", "SpanNode", "SpanTracer", "span"),
})
