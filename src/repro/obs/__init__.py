"""GTrace: end-to-end structured tracing + metrics for the GFlink stack.

The paper's whole evaluation (§6, Eq. 1, Observations 1–3) is a story about
*where time goes* — submit/schedule overheads, PCIe transfers, kernel time,
cache hits.  This package is the unified instrumentation layer that tells
that story per run instead of per aggregate:

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
:class:`Observability` (tracer + registry), switched by
``FlinkConfig.enable_tracing`` — off by default (tests), on in benchmarks.
Tracing never schedules simulation events, so the simulated clock is
bit-identical with tracing on or off.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Any

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
    NULL_MONITOR,
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
    "NULL_MONITOR",
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


class Observability:
    """One cluster's tracer + registry + monitor, passed through the stack.

    ``enabled`` switches tracing; ``monitoring`` additionally attaches a
    live :class:`~repro.obs.monitor.GMonitor` (which needs the registry,
    so monitoring alone also enables it).  When monitoring is off the
    shared :data:`~repro.obs.monitor.NULL_MONITOR` is handed out — call
    sites stay unconditional and allocate nothing.
    """

    def __init__(self, env: Any, enabled: bool = False,
                 monitoring: bool = False, monitor_window_s: float = 1.0,
                 flight_recorder: bool = False,
                 flight_recorder_dir: Any = None):
        self.tracer = Tracer(env, enabled=enabled)
        self.registry = MetricsRegistry(enabled=enabled or monitoring)
        # The recorder is passive (bounded deques + dump-time file I/O):
        # it works with monitoring (alert-triggered bundles with metric
        # windows) or with bare chaos runs (fault-triggered bundles).
        self.recorder = (FlightRecorder(
            env, tracer=self.tracer, dirpath=flight_recorder_dir)
            if flight_recorder else None)
        if monitoring:
            self.monitor = GMonitor(env, tracer=self.tracer,
                                    registry=self.registry,
                                    window_s=monitor_window_s,
                                    recorder=self.recorder)
        else:
            self.monitor = NULL_MONITOR

    @property
    def enabled(self) -> bool:
        """True when the tracer and registry are recording."""
        return self.tracer.enabled

    @property
    def active(self) -> bool:
        """True when any sink (tracer, registry, monitor) records anything.

        Per-block loops test this once and skip their emission calls —
        all no-ops otherwise — together with the argument building.
        """
        return (self.tracer.enabled or self.registry.enabled
                or self.monitor.enabled)
