"""The instrumentation bus: one object the engine emits through.

Engine code never touches a sink.  It states a fact —
:meth:`Observability.emit` for an instant, an interval measured by the model
itself or a lane-less total, :meth:`Observability.span` around simulated
work — and :data:`repro.obs.facts.FACTS` decides what the tracer draws and
what the registry and the monitor derive.  With every sink off,
``active`` is False and both calls return on their first line: that one
branch is the whole cost of disabled observability, and per-block loops
may read it once (``core/gstream.py`` does, per pipeline).

Emit once, derive after.  A fact — an emit, a span's entry, a span's exit —
is one row appended to ``log``, the six fields ``step, process, thread, t0,
t1, attrs`` in a flat list (no object per row), and nothing else; each sink
is a fold over the log with a cursor of its own.  The tracer draws the rows
when it is read.  The registry and the monitor share one cursor,
:meth:`Observability._fold`: it runs before any of their reads and whenever
a row with a monitor derivation is stated at or past the monitor's next
window boundary, the one float compare an emit makes.  Every derivation of
a row lands in the monitor window of the row's own instant ``t1`` — a
registry derivation records into the monitor series of its key as well —
and the windows before that instant close first.  So no fact needs to
drive the window clock, and where a fact lands does not depend on when it
is folded.  A fact is stated at its own instant: with monitoring on, an
emit whose ``t1`` is before now raises there.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.common.errors import ConfigError
from repro.obs.facts import DUR, FACTS, PROCESS, Derive, resolve_labels
from repro.obs.flightrecorder import FlightRecorder
from repro.obs.metrics import UPDATES, MetricsRegistry
from repro.obs.monitor import SERIES_KINDS, GMonitor
from repro.obs.trace import NULL_SPAN, ROW, Tracer

__all__ = ["OFF", "Observability"]


class _Step:
    """What one row of a fact does: the lanes it opens, the event it draws
    (none when ``cat`` is None) and the derivations it folds."""

    __slots__ = ("fact", "opens", "cat", "ph", "name", "templated",
                 "hidden", "derive", "eager")

    def __init__(self, fact: str, on_open: Optional[bool], monitoring: bool):
        self.fact = fact
        row = FACTS[fact]
        entry = on_open is True
        self.opens = () if entry else row.opens
        self.cat = None if entry else row.cat
        self.ph, self.name, self.hidden = row.ph, row.name, row.hidden
        self.templated = self.cat is not None and "{" in row.name
        self.derive = tuple(
            _compiled(d) for d in row.derive
            if (on_open is None or d.on_open is on_open)
            and (monitoring or d.sink == "registry"))
        #: A monitor derivation: stated past the window boundary, the row
        #: folds at once (a registry-only row waits for the next fold).
        self.eager = any(d[0] for d in self.derive)


def _compiled(d: Derive) -> tuple:
    """``(to the monitor?, kind, name, value, unless, skip_zero, key,
    labels)``: ``key`` is the metric key when the derivation has no labels;
    ``labels`` is ``(spec, attr source, memo)`` otherwise, the memo mapping
    a ``(process, str attr value)`` to the key it resolves to."""
    attrs = [src for _label, src, _map in d.labels
             if src != PROCESS and src[0] != "="]
    if len(attrs) > 1:
        raise ConfigError(f"derivation {d.name!r}: at most one label may "
                          f"come from an attr")
    labels = (d.labels, attrs[0] if attrs else None, {}) if d.labels \
        else None
    return (d.sink == "monitor", d.kind, d.name, d.value, d.unless,
            d.skip_zero, (d.name, ()), labels)


#: monitoring -> ({fact: emit step}, {fact: (entry step, exit step)})
_STEPS = {monitoring: (
    {fact: _Step(fact, None, monitoring) for fact in FACTS},
    {fact: (_Step(fact, True, monitoring), _Step(fact, False, monitoring))
     for fact in FACTS})
    for monitoring in (False, True)}


_new_span = object.__new__


def _unknown(fact: str) -> ConfigError:
    return ConfigError(f"unknown fact {fact!r}: not a row of "
                       f"repro.obs.facts.FACTS")


class _FactSpan:
    """An open span of one fact: a row at entry, a row at exit.

    The entry row keeps the attrs dict it was logged with, unchanged:
    :meth:`set` and an error at exit give the exit a new one, so the
    entry's derivations read the attrs as they were at entry whenever they
    are folded.
    """

    __slots__ = ("_obs", "_steps", "_process", "_thread", "_attrs", "_t0")

    def set(self, **attrs: Any) -> "_FactSpan":
        """Attach attrs known only mid-span (e.g. byte counts at the end)."""
        self._attrs = {**self._attrs, **attrs}
        return self

    def __enter__(self) -> "_FactSpan":
        obs = self._obs
        self._t0 = t0 = obs.env.now
        step = self._steps[0]
        obs.log.extend((step, self._process, self._thread, t0, t0,
                        self._attrs))
        if step.eager and t0 >= obs.monitor.boundary:
            obs._fold()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and "error" not in self._attrs:
            self.set(error=exc_type.__name__)
        obs = self._obs
        now = obs.env.now
        step = self._steps[1]
        obs.log.extend((step, self._process, self._thread, self._t0, now,
                        self._attrs))
        if step.eager and now >= obs.monitor.boundary:
            obs._fold()
        return False


class Observability:
    """One cluster's tracer + registry + monitor behind one emission path.

    ``tracing`` switches the tracer, ``monitoring`` attaches a live
    :class:`~repro.obs.monitor.GMonitor` (``monitor`` is None otherwise);
    either one enables the registry.  The sinks stay readable —
    ``obs.tracer``, ``obs.registry``, ``obs.monitor`` — for exporters and
    reports, never for the model; only this class writes to them.
    """

    def __init__(self, env: Any, tracing: bool = False,
                 monitoring: bool = False, monitor_window_s: float = 1.0,
                 flight_recorder: bool = False,
                 flight_recorder_dir: Any = None):
        self.env = env
        self.tracer = Tracer(env, enabled=tracing)
        #: The fact log: the tracer draws from it, ``_fold`` derives from it.
        self.log = self.tracer.log
        self._folded = 0
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
        self._steps, self._span_steps = _STEPS[self.monitor is not None]
        self.registry._fold = self._fold
        if self.monitor is not None:
            self.monitor._fold = self._fold
        #: True when any sink records anything; the one disabled-path test.
        self.active = bool(tracing or monitoring)

    # -- emission ------------------------------------------------------------------
    def emit(self, fact: str, process: Optional[str] = None,
             thread: Optional[str] = None, t0: Optional[float] = None,
             t1: Optional[float] = None, **attrs: Any) -> None:
        """State ``fact``: at ``[t0, t1]`` on a lane — now when ``t0`` is
        omitted, at the instant ``t0`` when ``t1`` is.

        A fact given no lane is not drawn; its derivations still apply.
        """
        if not self.active:
            return
        try:
            step = self._steps[fact]
        except KeyError:
            raise _unknown(fact) from None
        now = self.env.now
        if t0 is None:
            t0 = t1 = now
        else:
            if t1 is None:
                t1 = t0
            if not t0 <= t1:
                raise ValueError(
                    f"fact {fact!r} at [{t0!r}, {t1!r}]: t1 must not precede "
                    f"t0 and neither may be NaN")
            if t1 < now and step.derive and self.monitor is not None:
                # Its window may have closed before the fold reaches it.
                raise ConfigError(
                    f"fact {fact!r} at t={t1!r} is stated late, at t={now!r}: "
                    f"with monitoring on a fact is stated at its own instant")
        self.log.extend((step, process, thread, t0, t1, attrs))
        if step.eager and t1 >= self.monitor.boundary:
            self._fold()

    def span(self, fact: str, process: str, thread: str, **attrs: Any):
        """A context manager emitting ``fact`` over the enclosed simulated
        time — on an exception too, with ``error`` set to its type name."""
        if not self.active:
            return NULL_SPAN
        try:
            steps = self._span_steps[fact]
        except KeyError:
            raise _unknown(fact) from None
        # Built without an __init__ frame: the slots are written here.
        span = _new_span(_FactSpan)
        span._obs, span._steps, span._attrs = self, steps, attrs
        span._process, span._thread = process, thread
        return span

    # -- the registry and monitor fold ------------------------------------------------
    def _fold(self) -> None:
        """Apply the derivations of every row not yet folded, in log order,
        each in the monitor window of the row's instant ``t1``: the windows
        before it close first, and a row for a closed window is an error.
        Then the tracer catches up, and the rows every sink has taken in
        are dropped."""
        log = self.log
        start, end = self._folded, len(log)
        if start == end:
            return
        # Claimed up front: a read made while a window closes (a flight
        # recorder dump) finds nothing left to fold.
        self._folded = end
        registry, monitor = self.registry, self.monitor
        metrics = registry._metrics
        rows = iter(log[start:end])
        for i, step, process, _, t0, t1, attrs in zip(
                range(start, end, ROW), *(rows,) * ROW):
            if step is None or not step.derive:
                continue
            if monitor is not None:
                idx = int(t1 / monitor.window_s)
                if idx != monitor._cur:
                    if idx < monitor._cur:
                        # The row is dropped; the rows after it fold next.
                        self._folded = i + ROW
                        raise ConfigError(
                            f"fact {step.fact!r} at t={t1!r} is for closed "
                            f"window {idx} (window {monitor._cur} is open)")
                    monitor._advance(idx)
            for to_monitor, kind, name, value, unless, skip_zero, key, \
                    labels in step.derive:
                if unless and any(map(attrs.get, unless)):
                    continue
                if value.__class__ is str:
                    value = t1 - t0 if value == DUR else attrs[value]
                if labels is not None:
                    spec, src, memo = labels
                    v = None if src is None else attrs[src]
                    if v is None or v.__class__ is str:
                        key = memo.get((process, v))
                        if key is None:
                            key = memo[process, v] = (name, resolve_labels(
                                spec, process, attrs))
                    else:
                        key = (name, resolve_labels(spec, process, attrs))
                if not to_monitor:
                    if not value and skip_zero:
                        continue
                    metric = metrics.get(key)
                    if metric is None or metric.kind != kind:
                        metric = registry._get_or_create(
                            UPDATES[kind][0], name, key[1])
                    if kind == "counter" and value >= 0:
                        metric.value += value
                    else:
                        UPDATES[kind][1](metric, value)
                    # The monitor series of the same key counts it too (a
                    # counter's zero is no point).
                    if monitor is None or not value and kind == "counter":
                        continue
                elif kind not in SERIES_KINDS:
                    monitor._record(kind, name, value, key[1])
                    continue
                series = monitor.store._series.get(key)
                if series is None or series.kind != kind:
                    series = monitor.store.series_items(name, kind, key[1])
                series.record(monitor._cur, value)
        self.tracer._draw()
        del log[:]
        self._folded = self.tracer._drawn = 0

    # -- topology (not facts) --------------------------------------------------------
    def register_worker(self, name: str) -> None:
        if self.monitor is not None:
            self.monitor.register_worker(name)

    def register_device(self, name: str, pcie_bps: float) -> None:
        if self.monitor is not None:
            self.monitor.register_device(name, pcie_bps=pcie_bps)


#: The shared all-off bus: the default of components built standalone.
OFF = Observability(None)
