"""Compiler-wide observability: pass tracing, metrics, packet traces.

Three independent primitives, all disabled by default so the zero-cost
path stays zero-cost:

* :mod:`repro.obs.trace` — :class:`Tracer`, a nesting span recorder the
  driver wraps every compiler pass in (``with tracer.span("midend.link")``).
* :mod:`repro.obs.metrics` — :data:`METRICS`, the process-wide registry
  of counters/gauges/histograms populated by the frontend, midend and
  backends, with a JSON snapshot exporter.
* :mod:`repro.obs.pkttrace` — :class:`PacketTrace`, a per-packet event
  log (extract → MAT hit/miss → deparse/emit) the behavioral
  interpreter fills in when asked.

A fourth primitive builds on the first three:

* :mod:`repro.obs.telemetry` — the live telemetry plane:
  :class:`LiveTelemetry` (rolling merged per-shard snapshots),
  :class:`StatsServer` (``/stats.json`` + ``/metrics`` HTTP export),
  :class:`FlightRecorder` (bounded post-mortem verdict ring), and
  :class:`TraceWriter` (JSONL pkttrace streaming).

Metric key naming convention: ``<layer>.<component>.<what>`` with the
layer one of ``frontend``, ``linker``, ``analysis``, ``compose``,
``optimize``, ``tna``, ``v1model``, ``interp``, ``codegen``,
``vector``, ``pipeline``, ``switch``.
"""

from repro.obs.metrics import METRICS, MetricsRegistry, collecting
from repro.obs.pkttrace import TRACE_SCHEMA_VERSION, PacketTrace, TraceEvent
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    FlightRecorder,
    LiveTelemetry,
    StatsServer,
    TraceWriter,
)
from repro.obs.trace import NULL_TRACER, Span, Tracer

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "collecting",
    "PacketTrace",
    "TraceEvent",
    "TRACE_SCHEMA_VERSION",
    "TELEMETRY_SCHEMA_VERSION",
    "FlightRecorder",
    "LiveTelemetry",
    "StatsServer",
    "TraceWriter",
    "NULL_TRACER",
    "Span",
    "Tracer",
]
