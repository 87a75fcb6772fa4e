"""GTrace: end-to-end structured tracing + metrics for the GFlink stack.

The paper's whole evaluation (§6, Eq. 1, Observations 1–3) is a story about
*where time goes* — submit/schedule overheads, PCIe transfers, kernel time,
cache hits.  This package is the unified instrumentation layer that tells
that story per run instead of per aggregate:

* :class:`~repro.obs.bus.Observability` — the bus: the one object engine
  code emits facts through; :data:`repro.obs.facts.FACTS` states what each
  sink below derives from every fact.
* :class:`~repro.obs.trace.Tracer` — structured spans/instants with
  sim-clock timestamps, organized into per-worker / per-device /
  per-copy-engine tracks so transfer/compute overlap is visible.
* :class:`~repro.obs.metrics.MetricsRegistry` — labelled counters, gauges
  and histograms the runtime's ad-hoc counters feed into.
* :mod:`repro.obs.export` — Chrome trace-event JSON (open in Perfetto) and
  flat metrics JSON, plus a dependency-free schema validator.
* :mod:`repro.obs.profile` — GProfiler: critical-path extraction,
  per-operator bottleneck classification, engine-utilization timelines and
  a baseline regression gate (``repro profile``), over a live tracer or an
  exported trace file.

Wiring: every :class:`~repro.flink.runtime.Cluster` owns an
:class:`Observability`, switched by ``FlinkConfig.enable_tracing`` /
``enable_monitoring`` — off by default (tests), on in benchmarks.  No sink
schedules simulation events and no model component reads a sink, so the
simulated clock is bit-identical with observability on or off.  See
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from repro.obs.bus import OFF, Observability
from repro.obs.explain import (
    explain_summaries,
    render_explanation,
    validate_explanation,
)
from repro.obs.flightrecorder import (
    FlightRecorder,
    render_bundle,
    validate_postmortem_bundle,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.monitor import (
    AlertRule,
    GMonitor,
    SLObjective,
    validate_monitor_summary,
)
from repro.obs.profile import (
    ProfileTrace,
    compare_summaries,
    profile_file,
    summarize_tracer,
    validate_profile_summary,
)
from repro.obs.trace import TraceEvent, Tracer, Track

__all__ = [
    "AlertRule",
    "Counter",
    "FlightRecorder",
    "GMonitor",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OFF",
    "Observability",
    "ProfileTrace",
    "SLObjective",
    "TraceEvent",
    "Tracer",
    "Track",
    "compare_summaries",
    "explain_summaries",
    "profile_file",
    "render_bundle",
    "render_explanation",
    "summarize_tracer",
    "validate_explanation",
    "validate_monitor_summary",
    "validate_postmortem_bundle",
    "validate_profile_summary",
]


