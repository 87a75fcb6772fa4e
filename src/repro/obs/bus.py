"""The instrumentation bus: one object the engine emits through.

Engine code never touches a sink.  It states a fact —
:meth:`Observability.emit` for an instant, an interval measured by the model
itself or a lane-less total, :meth:`Observability.span` around simulated
work — and :data:`repro.obs.facts.FACTS` decides what the tracer draws and
what the registry and the monitor derive.  With every sink off,
``active`` is False and both calls return on their first line: that one
branch is the whole cost of disabled observability, and per-block loops
may read it once (``core/gstream.py`` does, per pipeline).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.common.errors import ConfigError
from repro.obs.facts import DUR, FACTS, Fact, resolve_labels
from repro.obs.flightrecorder import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import GMonitor
from repro.obs.trace import NULL_SPAN, TraceEvent, Tracer

__all__ = ["OFF", "Observability"]


def _row(fact: str) -> Fact:
    try:
        return FACTS[fact]
    except KeyError:
        raise ConfigError(f"unknown fact {fact!r}: not a row of "
                          f"repro.obs.facts.FACTS") from None


class _FactSpan:
    """An open span of one fact; emitted when the ``with`` block exits."""

    __slots__ = ("_obs", "_row", "_process", "_thread", "_attrs", "_t0")

    def __init__(self, obs: "Observability", fact: str, process: str,
                 thread: str, attrs: Dict[str, Any]):
        self._obs = obs
        self._row = _row(fact)
        self._process = process
        self._thread = thread
        self._attrs = attrs
        self._t0 = 0.0
        # The lane exists from here on, not from the exit: tids are handed
        # out in first-use order.
        obs.tracer.track(process, thread)

    def set(self, **attrs: Any) -> "_FactSpan":
        """Attach attrs known only mid-span (e.g. byte counts at the end)."""
        self._attrs.update(attrs)
        return self

    def __enter__(self) -> "_FactSpan":
        self._t0 = t0 = self._obs.env.now
        self._obs._derive(self._row.derive, True, self._process, t0, t0,
                          self._attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._attrs.setdefault("error", exc_type.__name__)
        self._obs._apply(self._row, self._process, self._thread, self._t0,
                         self._obs.env.now, self._attrs, False)
        return False


class Observability:
    """One cluster's tracer + registry + monitor behind one emission path.

    ``tracing`` switches the tracer, ``monitoring`` attaches a live
    :class:`~repro.obs.monitor.GMonitor` (``monitor`` is None otherwise);
    either one enables the registry.  The sinks stay readable —
    ``obs.tracer``, ``obs.registry``, ``obs.monitor`` — for exporters and
    reports; only this class writes to them.
    """

    def __init__(self, env: Any, tracing: bool = False,
                 monitoring: bool = False, monitor_window_s: float = 1.0,
                 flight_recorder: bool = False,
                 flight_recorder_dir: Any = None):
        self.env = env
        self.tracer = Tracer(env, enabled=tracing)
        self.registry = MetricsRegistry(enabled=tracing or monitoring)
        # The recorder is passive (bounded deques + dump-time file I/O):
        # it works with monitoring (alert-triggered bundles with metric
        # windows) or with bare chaos runs (fault-triggered bundles).
        self.recorder = (FlightRecorder(
            env, tracer=self.tracer, dirpath=flight_recorder_dir)
            if flight_recorder else None)
        self.monitor: Optional[GMonitor] = (GMonitor(
            env, tracer=self.tracer, registry=self.registry,
            window_s=monitor_window_s, recorder=self.recorder)
            if monitoring else None)
        #: True when any sink records anything; the one disabled-path test.
        self.active = bool(tracing or monitoring)

    # -- emission ------------------------------------------------------------------
    def emit(self, fact: str, process: Optional[str] = None,
             thread: Optional[str] = None, t0: Optional[float] = None,
             t1: Optional[float] = None, **attrs: Any) -> None:
        """State ``fact``: at ``[t0, t1]`` (now when omitted) on a lane.

        A fact given no lane is not drawn; its derivations still apply.
        """
        if not self.active:
            return
        if t0 is None:
            t0 = t1 = self.env.now
        self._apply(_row(fact), process, thread, t0, t1, attrs)

    def span(self, fact: str, process: str, thread: str, **attrs: Any):
        """A context manager emitting ``fact`` over the enclosed simulated
        time — on an exception too, with ``error`` set to its type name."""
        if not self.active:
            return NULL_SPAN
        return _FactSpan(self, fact, process, thread, attrs)

    def _apply(self, row: Fact, process, thread, t0: float, t1: float,
               attrs: Dict[str, Any], on_open: Optional[bool] = None) -> None:
        """Draw the fact and derive from it.  ``on_open`` picks the
        derivations: all of them, or (False) those a span's entry has not
        already applied."""
        tracer = self.tracer
        if tracer.enabled and process is not None:
            for opened in row.opens:
                tracer.track(process, opened)
            if thread is not None:
                track = tracer.track(process, thread)
                if row.cat is not None:
                    name = row.name
                    if "{" in name:
                        name = name.format_map(attrs)
                    args = attrs
                    if row.hidden:
                        args = dict(attrs)
                        for key in row.hidden:
                            del args[key]
                    tracer._record(TraceEvent(
                        name, row.cat, row.ph, t0, max(t1 - t0, 0.0),
                        track.pid, track.tid, args or None))
        if row.derive:
            self._derive(row.derive, on_open, process, t0, t1, attrs)

    def _derive(self, derive, on_open: Optional[bool], process, t0: float,
                t1: float, attrs: Dict[str, Any]) -> None:
        registry, monitor = self.registry, self.monitor
        for sink, kind, name, value, labels, unless, skip_zero, opens \
                in derive:
            if (on_open is not None and opens is not on_open) \
                    or (monitor is None and sink == "monitor"):
                continue
            if unless and any(attrs.get(u) for u in unless):
                continue
            if value.__class__ is str:
                value = t1 - t0 if value == DUR else attrs[value]
            if labels:
                labels = resolve_labels(labels, process, attrs)
            if sink == "monitor":
                monitor.feed(kind, name, value, labels)
            elif value or not skip_zero:
                registry.apply(kind, name, value, labels)

    # -- topology and queries (not facts) --------------------------------------------
    def register_worker(self, name: str) -> None:
        if self.monitor is not None:
            self.monitor.register_worker(name)

    def register_device(self, name: str, pcie_bps: float) -> None:
        if self.monitor is not None:
            self.monitor.register_device(name, pcie_bps=pcie_bps)

    def trends(self, name: str, window: int) -> Dict[str, Dict[str, Any]]:
        """The monitor's trend snapshots for one series family ({} if off)."""
        if self.monitor is None:
            return {}
        return self.monitor.trends(name, window=window)


#: The shared all-off bus: the default of components built standalone.
OFF = Observability(None)
