"""GMonitor: an online telemetry plane over the simulated clock.

GTrace (spans) and GProfiler (post-mortem analysis) answer *where did the
time go* after the run ends.  This module watches the system **while the
simulated clock advances**: it folds the facts of the bus into fixed-width
windows of simulated time, tracks latency/availability SLOs with error
budgets and burn rates, evaluates alert rules (threshold / rate-of-change /
sustained-window) with a firing→resolved lifecycle, and rolls worker /
device / cluster health scores — the substrate for admission-control SLOs
and a profiler-driven autoscaler (ROADMAP items 1 and 4).

Clock discipline (the PR 2 contract, kept here): the monitor **never
schedules simulation events**.  Windows are closed lazily — when a fact
with a monitor derivation is stated at or past :attr:`GMonitor.boundary`,
at a read (or when a direct feed ticks there), the elapsed windows are
closed, alert rules evaluated and health scored, all synchronously inside
whatever process was already running.  A bus's monitor is a fold over its
fact log: each fact lands in the window of its own instant, registry
derivations included (a registry counter's window value is what the facts
of that window added to it), and the windows before that instant close
first.  Enabled or disabled, the simulated clock is bit-identical
(asserted by ``tests/obs/test_monitor.py``).

Window semantics:

* **counter** series: the window value is the delta accumulated in that
  window (missing window = 0).
* **gauge** series: last value set in the window (carried forward for
  alert evaluation).
* **histogram** series: per-window count/sum/min/max/p50/p95/p99
  estimated from the same bucket interpolation the registry histograms
  use.

An alert fires or resolves at the end of the window that decides it: its
instant on the trace and its post-mortem bundle are stamped there, not at
whichever later fact happened to close the window.

The machine-readable summary (``repro.monitor.summary/v1``) feeds the
dependency-free HTML dashboard (:mod:`repro.obs.dashboard`) and is
validated by :func:`validate_monitor_summary` (wired into
``python -m repro.obs.validate``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.obs.anomaly import SlidingTrend, trend_snapshot
from repro.obs.metrics import Histogram, LabelItems, label_items, render_key
from repro.obs.schema import MONITOR_SCHEMA, validate_monitor_summary

__all__ = [
    "Alert",
    "AlertRule",
    "GMonitor",
    "HealthScorer",
    "MONITOR_SCHEMA",
    "SLObjective",
    "SLOTracker",
    "Series",
    "TimeSeriesStore",
    "validate_monitor_summary",
]

#: Windows retained per series (older points are dropped).
RETENTION_WINDOWS = 720

#: The kinds a derivation records into a series of its own.
SERIES_KINDS = ("counter", "gauge", "histogram")

#: severity -> health penalty per active alert touching a worker/device
_SEVERITY_PENALTY = {"critical": 40.0, "warning": 15.0}


# ---------------------------------------------------------------------------
# Time-series store
# ---------------------------------------------------------------------------

def _window_stats(h: Histogram) -> Dict[str, Any]:
    """One window's point of a histogram series."""
    return {"count": h.count, "sum": h.total, "min": h.vmin, "max": h.vmax,
            "p50": h.percentile(0.50), "p95": h.percentile(0.95),
            "p99": h.percentile(0.99)}


class Series:
    """One labelled time series: sparse ``(window_index, value)`` points.

    Points are appended in increasing window order and trimmed to the
    store's retention.  ``kind`` follows the registry metric kinds.
    """

    __slots__ = ("name", "labels", "kind", "points",
                 "_open_idx", "_open_val", "_open_hist")

    def __init__(self, name: str, labels: LabelItems, kind: str,
                 retention: int):
        self.name = name
        self.labels = labels
        self.kind = kind
        self.points: deque = deque(maxlen=retention)
        self._open_idx: Optional[int] = None
        self._open_val = 0.0
        self._open_hist: Optional[Histogram] = None

    @property
    def key(self) -> str:
        return render_key(self.name, self.labels)

    def record(self, idx: int, value: float) -> None:
        """Accumulate ``value`` into the open window ``idx``."""
        if self._open_idx != idx:
            self._open_idx = idx
            if self.kind == "histogram":
                self._open_hist = Histogram(self.name, self.labels)
            else:
                self._open_val = 0.0
        if self.kind == "counter":
            self._open_val += value
        elif self.kind == "gauge":
            self._open_val = float(value)
        else:
            self._open_hist.observe(value)

    def close(self, idx: int):
        """Close window ``idx``; return its value or None if untouched."""
        if self._open_idx != idx:
            return None
        self._open_idx = None
        if self.kind == "histogram":
            value = _window_stats(self._open_hist)
            self._open_hist = None
        else:
            value = self._open_val
        self.points.append((idx, value))
        return value

    def set_closed(self, idx: int, value) -> None:
        """Append a point for an already-closed window (derived series)."""
        self.points.append((idx, value))


class TimeSeriesStore:
    """Get-or-create registry of :class:`Series` with bounded retention."""

    def __init__(self, retention: int = RETENTION_WINDOWS):
        if retention < 1:
            raise ConfigError(f"retention must be >= 1, got {retention}")
        self.retention = retention
        self._series: Dict[Tuple[str, LabelItems], Series] = {}

    def series(self, name: str, kind: str, **labels: Any) -> Series:
        return self.series_items(name, kind, label_items(labels))

    def series_items(self, name: str, kind: str,
                     labels: LabelItems) -> Series:
        """Like :meth:`series` but with pre-sorted label items — the
        spelling the bus's fold uses (label keys like ``kind`` would
        collide with the keyword signature)."""
        key = (name, labels)
        s = self._series.get(key)
        if s is None:
            s = Series(name, labels, kind, self.retention)
            self._series[key] = s
        elif s.kind != kind:
            raise ConfigError(
                f"series {render_key(*key)} already registered as "
                f"{s.kind}, requested {kind}")
        return s

    def family(self, name: str) -> List[Series]:
        """All series sharing ``name``, sorted by labels."""
        return [self._series[k] for k in sorted(self._series)
                if k[0] == name]

    def all_series(self) -> List[Series]:
        return [self._series[k] for k in sorted(self._series)]

    def __len__(self) -> int:
        return len(self._series)

    def close_window(self, idx: int) -> List[Tuple[Series, Any]]:
        """Close window ``idx`` on every open series; return the values."""
        closed = []
        for s in self._series.values():
            v = s.close(idx)
            if v is not None:
                closed.append((s, v))
        return closed


# ---------------------------------------------------------------------------
# SLOs
# ---------------------------------------------------------------------------

@dataclass
class SLObjective:
    """One service-level objective.

    ``kind="latency"``: events are durations; an event is *bad* when it
    exceeds ``target`` seconds (finite, > 0), and the objective promises
    the ``percentile`` quantile stays under the target — the allowed bad
    fraction is ``1 - percentile``.  ``target=None`` tracks the
    distribution without gating.

    ``kind="availability"``: events are ok/failed attempts; the objective
    promises a ``target`` fraction of events succeed — the allowed bad
    fraction (the error budget) is ``1 - target``.
    """

    name: str
    kind: str = "latency"
    target: Optional[float] = None
    percentile: float = 0.99

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "availability"):
            raise ConfigError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.percentile < 1.0:
            raise ConfigError("percentile must be in (0, 1)")
        if (self.kind == "availability"
                and (self.target is None or not 0.0 < self.target < 1.0)):
            raise ConfigError("availability target must be in (0, 1)")
        if (self.kind == "latency" and self.target is not None
                and not 0.0 < self.target < math.inf):
            raise ConfigError("latency target must be finite and > 0")

    @property
    def allowed_bad_frac(self) -> float:
        if self.kind == "availability":
            return 1.0 - self.target
        return 1.0 - self.percentile


class _SLOState:
    __slots__ = ("slo", "events", "bad", "hist")

    def __init__(self, slo: SLObjective):
        self.slo = slo
        self.events = 0
        self.bad = 0
        self.hist = Histogram(slo.name, ())


class SLOTracker:
    """Error-budget accounting over job/task completion events.

    Burn rate is the classic SRE ratio: the fraction of events that were
    bad divided by the fraction the objective allows.  Burn > 1 means the
    error budget is being consumed faster than it accrues — sustained,
    that is an SLO violation.
    """

    def __init__(self, store: TimeSeriesStore):
        self._store = store
        self._states: Dict[str, _SLOState] = {}

    def add(self, slo: SLObjective) -> SLObjective:
        if slo.name in self._states:
            raise ConfigError(f"SLO {slo.name!r} already registered")
        self._states[slo.name] = _SLOState(slo)
        return slo

    def observe_latency(self, idx: int, name: str, seconds: float) -> None:
        state = self._states.get(name)
        if state is not None and state.slo.kind == "latency":
            state.hist.observe(seconds)
            self._count(idx, state, state.slo.target is not None
                        and seconds > state.slo.target)

    def observe_event(self, idx: int, name: str, ok: bool) -> None:
        state = self._states.get(name)
        if state is not None and state.slo.kind == "availability":
            self._count(idx, state, not ok)

    def _count(self, idx: int, state: _SLOState, bad: bool) -> None:
        state.events += 1
        self._store.series("slo.events", "counter",
                           slo=state.slo.name).record(idx, 1)
        if bad:
            state.bad += 1
            self._store.series("slo.bad", "counter",
                               slo=state.slo.name).record(idx, 1)

    def burn_rate(self, name: str) -> float:
        state = self._states[name]
        if not state.events:
            return 0.0
        bad_frac = state.bad / state.events
        allowed = state.slo.allowed_bad_frac
        return bad_frac / allowed if allowed > 0 else float("inf")

    def violated(self, name: str) -> bool:
        state = self._states[name]
        slo = state.slo
        if not state.events:
            return False
        if slo.kind == "latency":
            if slo.target is None:
                return False
            return state.hist.percentile(slo.percentile) > slo.target
        return (state.bad / state.events) > slo.allowed_bad_frac

    def summary(self) -> List[Dict[str, Any]]:
        rows = []
        for name, state in sorted(self._states.items()):
            slo = state.slo
            row: Dict[str, Any] = {
                "name": name,
                "kind": slo.kind,
                "target": slo.target,
                "events": state.events,
                "bad": state.bad,
                "bad_frac": (state.bad / state.events
                             if state.events else 0.0),
                "allowed_bad_frac": slo.allowed_bad_frac,
                "burn_rate": self.burn_rate(name),
                "budget_remaining_frac": max(
                    0.0, 1.0 - self.burn_rate(name)),
                "violated": self.violated(name),
            }
            if slo.kind == "latency":
                row["percentile"] = slo.percentile
                row["observed"] = {
                    "count": state.hist.count,
                    "p50": state.hist.percentile(0.50),
                    "p95": state.hist.percentile(0.95),
                    "p99": state.hist.percentile(0.99),
                } if state.hist.count else {"count": 0}
            rows.append(row)
        return rows


# ---------------------------------------------------------------------------
# Alerts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlertRule:
    """One alert rule over a series family.

    ``predicate`` is one of ``above`` / ``below`` (threshold on the window
    value), ``rate_above`` (window-over-window increase exceeds the
    threshold), or ``trend_above`` / ``trend_below`` (least-squares slope
    of the last ``trend_window`` window values, in value-per-window units,
    crosses the threshold).  The rule fires after ``sustained`` consecutive
    breaching windows and resolves after ``resolve_after`` consecutive
    quiet ones.  ``labels`` restricts matching to series whose labels are
    a superset; for histogram series ``window_field`` picks the per-window
    statistic.
    """

    name: str
    series: str
    predicate: str = "above"
    threshold: float = 0.0
    sustained: int = 1
    resolve_after: int = 2
    severity: str = "warning"
    labels: Tuple[Tuple[str, str], ...] = ()
    window_field: str = "count"
    trend_window: int = 8

    def __post_init__(self) -> None:
        if self.predicate not in ("above", "below", "rate_above",
                                  "trend_above", "trend_below"):
            raise ConfigError(f"unknown predicate {self.predicate!r}")
        if self.severity not in ("warning", "critical"):
            raise ConfigError(f"unknown severity {self.severity!r}")
        if self.sustained < 1 or self.resolve_after < 1:
            raise ConfigError("sustained/resolve_after must be >= 1")
        if self.trend_window < 2:
            raise ConfigError("trend_window must be >= 2")

    def matches(self, series: Series) -> bool:
        if series.name != self.series:
            return False
        return set(self.labels) <= set(series.labels)


@dataclass
class Alert:
    """One firing of a rule against one series, with its lifecycle."""

    rule: str
    series: str
    severity: str
    fired_at_s: float
    resolved_at_s: Optional[float] = None
    peak: float = 0.0
    labels: Dict[str, str] = field(default_factory=dict)
    #: Post-mortem bundle filename when a flight recorder dumped one.
    bundle: Optional[str] = None

    @property
    def active(self) -> bool:
        return self.resolved_at_s is None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule, "series": self.series,
            "severity": self.severity, "fired_at_s": self.fired_at_s,
            "resolved_at_s": self.resolved_at_s, "peak": self.peak,
            "labels": dict(self.labels), "bundle": self.bundle,
        }


class _RuleState:
    __slots__ = ("series", "breach_run", "ok_run", "last_value", "alert",
                 "trend")

    def __init__(self, series: Series, rule: "AlertRule"):
        self.series = series
        self.breach_run = 0
        self.ok_run = 0
        self.last_value = 0.0
        self.alert: Optional[Alert] = None
        # Online slope state, only materialized for trend predicates.
        self.trend: Optional[SlidingTrend] = (
            SlidingTrend(window=rule.trend_window)
            if rule.predicate in ("trend_above", "trend_below") else None)


class AlertEngine:
    """Evaluates alert rules once per closed window, in window order.

    Firing/resolution are emitted as instants on a dedicated
    ``monitor/alerts`` trace lane so alert history lines up with the spans
    in the Chrome trace.
    """

    def __init__(self, tracer=None):
        self._tracer = tracer
        self.rules: List[AlertRule] = []
        #: series name -> [(rule index, rule)]
        self._by_series: Dict[str, List[Tuple[int, AlertRule]]] = {}
        #: Series already matched against every rule (when first closed).
        self._matched: set = set()
        self._states: Dict[Tuple[int, str], _RuleState] = {}
        self.history: List[Alert] = []

    def add_rule(self, rule: AlertRule) -> AlertRule:
        self._by_series.setdefault(rule.series, []).append(
            (len(self.rules), rule))
        self.rules.append(rule)
        self._matched.clear()       # every series meets the new rule
        return rule

    def active_alerts(self) -> List[Alert]:
        return [a for a in self.history if a.active]

    def evaluate(self, idx: int, t_end: float,
                 closed: List[Tuple[Series, Any]]) -> List[Alert]:
        """Evaluate every rule against window ``idx`` (ending at t_end).

        Returns the alerts that *fired* this window (for flight-recorder
        dumps); lifecycle state lives in :attr:`history` as before.
        """
        fired: List[Alert] = []
        closed_by_series = {id(s): v for s, v in closed}
        # Match each series once, when it first closes; new states join in
        # rule order, then closing order.
        new = [s for s, _v in closed if s not in self._matched]
        self._matched.update(new)
        for ri, _pos, s in sorted(
                (ri, pos, s) for pos, s in enumerate(new)
                for ri, rule in self._by_series.get(s.name, ())
                if rule.matches(s)):
            if (ri, s.key) not in self._states:
                self._states[ri, s.key] = _RuleState(s, self.rules[ri])
        for (ri, _skey), state in self._states.items():
            rule = self.rules[ri]
            raw = closed_by_series.get(id(state.series))
            if raw is None:
                # No activity this window: counters/histograms read 0,
                # gauges carry their last value forward.
                value = (state.last_value
                         if state.series.kind == "gauge" else 0.0)
            elif isinstance(raw, dict):
                value = float(raw.get(rule.window_field, 0.0))
            else:
                value = float(raw)
            if rule.predicate == "above":
                breach = value > rule.threshold
            elif rule.predicate == "below":
                breach = value < rule.threshold
            elif rule.predicate in ("trend_above", "trend_below"):
                state.trend.update(value)
                slope = state.trend.slope()
                # Half-full window before a slope is trusted: a single
                # early point must not fire a trend rule.
                ready = len(state.trend) >= max(2, rule.trend_window // 2)
                if rule.predicate == "trend_above":
                    breach = ready and slope > rule.threshold
                else:
                    breach = ready and slope < rule.threshold
                state.last_value = value   # raw, for gauge carry-forward
                value = slope              # reported as the alert's peak
            else:  # rate_above
                breach = (value - state.last_value) > rule.threshold
            if rule.predicate not in ("trend_above", "trend_below"):
                state.last_value = value
            if breach:
                state.breach_run += 1
                state.ok_run = 0
            else:
                state.ok_run += 1
                state.breach_run = 0
            alert = state.alert
            if alert is None and state.breach_run >= rule.sustained:
                alert = Alert(rule=rule.name, series=state.series.key,
                              severity=rule.severity, fired_at_s=t_end,
                              peak=value,
                              labels=dict(state.series.labels))
                state.alert = alert
                self.history.append(alert)
                fired.append(alert)
                self._instant("alert.fired", alert, t_end)
            elif alert is not None:
                if breach:
                    alert.peak = max(alert.peak, value)
                if state.ok_run >= rule.resolve_after:
                    alert.resolved_at_s = t_end
                    state.alert = None
                    self._instant("alert.resolved", alert, t_end)
        return fired

    def _instant(self, what: str, alert: Alert, at: float) -> None:
        if self._tracer is None:
            return
        track = self._tracer.track("monitor", "alerts")
        self._tracer.instant(f"{what}:{alert.rule}", "monitor", track, at,
                             series=alert.series, severity=alert.severity,
                             peak=alert.peak)

    def summary(self) -> List[Dict[str, Any]]:
        return [a.to_dict() for a in self.history]


# ---------------------------------------------------------------------------
# Health
# ---------------------------------------------------------------------------

class HealthScorer:
    """Rolling 0–100 health per worker, device and the whole cluster.

    A score starts at 100 and loses a fixed penalty per *active* alert
    whose series labels pin it to the entity (``worker=``, ``device=``,
    or a device name prefixed by the worker's).  A worker the master
    knows is down scores 0 until it is declared and recovered around.
    Cluster health is the mean worker score.
    """

    def __init__(self, store: TimeSeriesStore):
        self._store = store
        self.workers: List[str] = []
        self.devices: List[str] = []
        self.down: set = set()
        self.latest: Dict[str, float] = {}

    def register_worker(self, name: str) -> None:
        if name not in self.workers:
            self.workers.append(name)

    def register_device(self, name: str) -> None:
        if name not in self.devices:
            self.devices.append(name)

    def worker_down(self, name: str) -> None:
        self.down.add(name)

    @staticmethod
    def _touches(alert: Alert, worker: Optional[str] = None,
                 device: Optional[str] = None) -> bool:
        labels = alert.labels
        if device is not None:
            return labels.get("device") == device
        w = labels.get("worker")
        d = labels.get("device", "")
        return w == worker or d.startswith(f"{worker}-")

    def _score(self, alerts: List[Alert], worker: Optional[str] = None,
               device: Optional[str] = None) -> float:
        score = 100.0
        for a in alerts:
            if self._touches(a, worker=worker, device=device):
                score -= _SEVERITY_PENALTY.get(a.severity, 15.0)
        return max(0.0, min(100.0, score))

    def score_window(self, idx: int, engine: AlertEngine) -> None:
        active = engine.active_alerts()
        worker_scores = []
        for w in self.workers:
            s = 0.0 if w in self.down else self._score(active, worker=w)
            self.latest[f"worker:{w}"] = s
            self._store.series("health.worker", "gauge",
                               worker=w).set_closed(idx, s)
            worker_scores.append(s)
        for d in self.devices:
            s = self._score(active, device=d)
            self.latest[f"device:{d}"] = s
            self._store.series("health.device", "gauge",
                               device=d).set_closed(idx, s)
        cluster = (sum(worker_scores) / len(worker_scores)
                   if worker_scores else 100.0)
        self.latest["cluster"] = cluster
        self._store.series("health.cluster", "gauge").set_closed(idx, cluster)

    def summary(self) -> Dict[str, Any]:
        return {
            "cluster": self.latest.get("cluster", 100.0),
            "workers": {w: self.latest.get(f"worker:{w}", 100.0)
                        for w in self.workers},
            "devices": {d: self.latest.get(f"device:{d}", 100.0)
                        for d in self.devices},
        }


# ---------------------------------------------------------------------------
# The monitor facade
# ---------------------------------------------------------------------------

class GMonitor:
    """The online telemetry plane: store + SLOs + alerts + health.

    Driven entirely by feeds — it owns no simulation process and never
    schedules events.  On a bus the feeds are the facts' derivations,
    folded by the bus (see :mod:`repro.obs.bus`) into the window of each
    fact's instant; ``_fold`` is the bus's, called before any read.  The
    direct API (:meth:`count`, :meth:`gauge`, :meth:`observe`,
    :meth:`feed`) starts with a :meth:`tick`: when ``env.now`` has reached
    :attr:`boundary`, the elapsed windows are closed (alerts evaluated,
    health scored) before the observation is recorded.

    ``registry`` is accepted and ignored (``benchmarks/perf/probes.py``
    still passes one): the bus feeds the registry's derivations in with
    the rest.
    """

    DEFAULT_RULES = (
        AlertRule(name="worker_unhealthy", series="worker.heartbeat.missed",
                  predicate="above", threshold=0.0, sustained=1,
                  resolve_after=3, severity="critical"),
        AlertRule(name="backpressure_stall",
                  series="pipeline.backpressure.stall_s",
                  predicate="above", threshold=0.0, sustained=3,
                  resolve_after=3, severity="warning"),
    )

    def __init__(self, env: Any, tracer=None, registry=None,
                 window_s: float = 1.0, retention: int = RETENTION_WINDOWS,
                 recorder=None):
        if window_s <= 0:
            raise ConfigError(f"window_s must be positive, got {window_s}")
        self._env = env
        #: Optional FlightRecorder: fed every closed window, dumps a
        #: post-mortem bundle per fired alert.  Never schedules events.
        self.recorder = recorder
        self.window_s = window_s
        self.store = TimeSeriesStore(retention=retention)
        self.slo = SLOTracker(self.store)
        self.alerts = AlertEngine(tracer=tracer)
        self.health = HealthScorer(self.store)
        self._cur = int(env.now / window_s) if env is not None else 0
        self._set_boundary()
        self._fold = None
        self._windows_closed = 0
        self._finalized = False
        for rule in self.DEFAULT_RULES:
            self.alerts.add_rule(rule)
        self.slo.add(SLObjective(name="job_latency", kind="latency",
                                 target=None, percentile=0.99))
        self.slo.add(SLObjective(name="task_availability",
                                 kind="availability", target=0.999))

    # -- window machinery --------------------------------------------------------

    def _set_boundary(self) -> None:
        """:attr:`boundary`: the least float time whose window index
        exceeds the open window's — ``now >= boundary`` is exactly
        ``int(now / window_s) > _cur``, one compare instead of a divide."""
        ws, cur = self.window_s, self._cur
        t = (cur + 1) * ws
        while int(t / ws) <= cur:
            t = math.nextafter(t, math.inf)
        while int(math.nextafter(t, -math.inf) / ws) > cur:
            t = math.nextafter(t, -math.inf)
        self.boundary = t

    def sync(self) -> None:
        """Fold the facts stated since the last read (a bus's monitor)."""
        if self._fold is not None:
            self._fold()

    def tick(self) -> None:
        """Close any windows the simulated clock has moved past."""
        self.sync()
        now = self._env.now
        if now >= self.boundary:
            self._advance(int(now / self.window_s))

    def _advance(self, target: int) -> None:
        while self._cur < target:
            idx = self._cur
            t_end = (idx + 1) * self.window_s
            closed = self.store.close_window(idx)
            fired = self.alerts.evaluate(idx, t_end, closed)
            self.health.score_window(idx, self.alerts)
            if self.recorder is not None:
                self.recorder.record_windows(idx, t_end, closed)
                for alert in fired:
                    alert.bundle = self.recorder.dump_for_alert(
                        self, alert, t_end)
            self._windows_closed += 1
            self._cur += 1
        self._set_boundary()

    # -- feeds (all tick first) ---------------------------------------------------

    def _record(self, kind: str, name: str, value: Any,
                labels: LabelItems = ()) -> None:
        """Fold one monitor derivation into the open window (the fact's own).

        ``kind`` is a series kind (``counter`` / ``gauge`` / ``histogram``),
        ``slo.latency`` / ``slo.event`` (``name`` is the objective,
        ``value`` the seconds / the ok flag) or ``health.down`` (the
        ``worker`` label went down).
        """
        if kind in SERIES_KINDS:
            series = self.store.series_items(name, kind, labels)
            series.record(self._cur, value)
        elif kind == "slo.latency":
            self.slo.observe_latency(self._cur, name, value)
        elif kind == "slo.event":
            self.slo.observe_event(self._cur, name, value)
        elif kind == "health.down":
            self.health.worker_down(dict(labels)["worker"])

    def feed(self, kind: str, name: str, value: Any,
             labels: LabelItems = ()) -> None:
        """One observation of any :meth:`_record` kind, ticking first."""
        self.tick()
        self._record(kind, name, value, labels)

    def count(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        self.tick()
        self.store.series(name, "counter", **labels).record(self._cur, amount)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        self.tick()
        self.store.series(name, "gauge", **labels).record(self._cur, value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self.tick()
        self.store.series(name, "histogram",
                          **labels).record(self._cur, value)

    # -- topology / rules --------------------------------------------------------

    def register_worker(self, name: str) -> None:
        self.health.register_worker(name)

    def register_device(self, name: str,
                        pcie_bps: Optional[float] = None) -> None:
        self.health.register_device(name)
        if pcie_bps:
            # PCIe bytes moved in one window vs 90% of the calibrated bus
            # ceiling over the same span — the paper's Observation 2 made
            # an online signal.
            self.alerts.add_rule(AlertRule(
                name="pcie_saturated", series="gpu.pcie.bytes",
                labels=(("device", name),), predicate="above",
                threshold=0.9 * pcie_bps * self.window_s,
                sustained=2, resolve_after=2, severity="warning"))

    # -- trends ------------------------------------------------------------------

    def trends(self, name: Optional[str] = None, window: int = 8,
               alpha: float = 0.3) -> Dict[str, Dict[str, Any]]:
        """Per-series trend snapshots over the stored (closed) windows.

        Keyed by the series key; each snapshot carries ``slope`` (value
        per window, least-squares over the last ``window`` points),
        ``zscore`` (EWMA drift of the latest point), ``mean``, ``last``
        and ``direction``.  ``name`` restricts to one series family.
        Pure arithmetic over already-closed windows; never advances the
        clock.
        """
        self.sync()
        out: Dict[str, Dict[str, Any]] = {}
        for s in self.store.all_series():
            if name is not None and s.name != name:
                continue
            snap = trend_snapshot(s.points, window=window, alpha=alpha)
            snap["name"] = s.name
            snap["labels"] = dict(s.labels)
            out[s.key] = snap
        return out

    def set_latency_target(self, target: float,
                           percentile: float = 0.99) -> None:
        """Point the built-in job_latency SLO at a concrete target."""
        self.sync()
        self.slo._states["job_latency"].slo = SLObjective(
            "job_latency", "latency", target, percentile)

    def set_availability_target(self, target: float) -> None:
        self.sync()
        self.slo._states["task_availability"].slo = SLObjective(
            "task_availability", "availability", target)

    # -- finalization / export ---------------------------------------------------

    def finalize(self) -> None:
        """Close the trailing (partial) window at the end of a run."""
        if self._finalized:
            return
        self._finalized = True
        self.sync()
        self._advance(int(self._env.now / self.window_s) + 1)

    def __len__(self) -> int:
        self.sync()
        return len(self.store) + len(self.alerts.history)

    def summary(self) -> Dict[str, Any]:
        self.sync()
        doc: Dict[str, Any] = {
            "schema": MONITOR_SCHEMA,
            "window_s": self.window_s,
            "generated_at_s": float(self._env.now),
            "windows_closed": self._windows_closed,
            "series": [
                {"name": s.name, "labels": dict(s.labels), "kind": s.kind,
                 "points": [[i, v] for i, v in s.points]}
                for s in self.store.all_series()
            ],
            "rules": [
                {"name": r.name, "series": r.series,
                 "predicate": r.predicate, "threshold": r.threshold,
                 "sustained": r.sustained, "resolve_after": r.resolve_after,
                 "severity": r.severity, "labels": dict(r.labels),
                 "trend_window": r.trend_window}
                for r in self.alerts.rules
            ],
            "alerts": self.alerts.summary(),
            "slos": self.slo.summary(),
            "health": self.health.summary(),
        }
        return doc
