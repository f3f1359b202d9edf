"""Observability: structured tracing, metrics, and phase timelines.

The measurement substrate for every layer of the reproduction:

- :mod:`repro.obs.trace` — :class:`Tracer` records virtual-time-stamped
  ``(t, node, kind, fields)`` events with per-kind filtering and a
  zero-overhead :data:`NULL_TRACER` default; traces round-trip through
  JSON Lines.
- :mod:`repro.obs.metrics` — :class:`MetricsRegistry` holds counters,
  gauges, and streaming (bucketed) latency histograms, plus providers
  that adapt existing stats objects into one snapshot.
- :mod:`repro.obs.spans` — the one reconstruction of a finished
  trace: per transaction, commit-path events correlated by zxid into
  :class:`TxnSpan` records with stage durations (fsync, quorum wait,
  commit fan-out, per-node deliver; the ``repro profile`` CLI), and
  per epoch, ``election -> sync -> broadcast`` phase spans
  (:func:`phase_spans`; the ``repro trace`` CLI output and the health
  monitor's leader detectors).
- :mod:`repro.obs.causality` — joins ``net.send``/``net.deliver``
  pairs by ``msg_id`` into a happens-before DAG and answers
  straggler / quorum-critical-follower questions.
- :mod:`repro.obs.recorder` — :class:`FlightRecorder`, the always-on
  bounded black box: per-node rings of recent events, dumped
  atomically (with a ``recorder.dump`` marker) the moment a checker
  violation, explorer violation, or health detector fires.
- :mod:`repro.obs.export` — :func:`to_chrome_trace` /
  :func:`dump_chrome_trace` map traces onto the Chrome trace-event
  JSON that ui.perfetto.dev renders (per-node tracks, commit-path
  slices, async wire/relay hops).
- :mod:`repro.obs.health` — :class:`HealthMonitor` folds a finished
  event stream into windowed cluster health: leader availability and
  recovery-dip detection read off the phase spans,
  straggler/disk-stall gray-failure detectors, and SLO error budgets;
  drives the ``repro health`` CLI via :func:`run_health_check`.

Event kinds, metric names, and the trace file format are documented in
``docs/OBSERVABILITY.md``.
"""

from repro.obs.causality import CausalityGraph
from repro.obs.health import (
    HealthMonitor,
    Slo,
    render_health,
    run_health_check,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    StreamingHistogram,
)
from repro.obs.export import dump_chrome_trace, to_chrome_trace
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import (
    STAGE_KEYS,
    TxnSpan,
    build_spans,
    fault_events,
    phase_spans,
    profile_trace,
    render_profile,
    render_summary,
    stage_histograms,
    summarize,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    dump_jsonl,
    load_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "StreamingHistogram",
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "dump_jsonl",
    "load_jsonl",
    "FlightRecorder",
    "to_chrome_trace",
    "dump_chrome_trace",
    "fault_events",
    "phase_spans",
    "render_summary",
    "summarize",
    "STAGE_KEYS",
    "TxnSpan",
    "build_spans",
    "profile_trace",
    "render_profile",
    "stage_histograms",
    "CausalityGraph",
    "HealthMonitor",
    "Slo",
    "render_health",
    "run_health_check",
]
