"""Flight recorder: bounded post-mortem capture for faults and alerts.

Black-box style: the recorder passively retains a bounded ring of the
most recent *closed metric windows* (fed by :class:`~repro.obs.monitor.
GMonitor` at window close) and, at dump time, snapshots the tail of the
tracer's span list.  When an alert fires or the chaos engine injects a
fault, it writes a **post-mortem bundle** — one JSON document with the
trace slice, metric windows, health scores, alert timeline, trend
snapshots, and any attached explain deltas — to a directory, rendered
later by ``repro postmortem``.

Capture is append-only arithmetic on bounded deques; the dump itself is
host-side file I/O.  Neither ever touches the simulation event heap, so
enabling the recorder keeps the simulated clock bit-identical (asserted
in ``tests/obs/test_monitor.py``).
"""

from __future__ import annotations

import json
import re
from collections import deque
from itertools import islice
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.schema import (  # noqa: F401  (validator re-exported)
    POSTMORTEM_SCHEMA, validate_postmortem_bundle)

#: Ring capacities and the bundle cap of a cluster's recorder (a runaway
#: alert storm must not fill the disk).
SPAN_CAPACITY = 512
WINDOW_CAPACITY = 512
MAX_BUNDLES = 16

_SLUG_RE = re.compile(r"[^a-zA-Z0-9_.-]+")


def _slug(text: str) -> str:
    return _SLUG_RE.sub("-", text).strip("-") or "event"


class FlightRecorder:
    """Bounded capture + bundle dumps; one per cluster, always passive.

    ``dirpath`` may be None (bundles are then only kept in memory via
    :attr:`last_bundle`, still bounded by ``max_bundles``).
    """

    def __init__(self, env: Any, tracer=None,
                 dirpath: Optional[str] = None,
                 span_capacity: int = SPAN_CAPACITY,
                 window_capacity: int = WINDOW_CAPACITY,
                 max_bundles: int = MAX_BUNDLES):
        if span_capacity < 1 or window_capacity < 1 or max_bundles < 1:
            raise ValueError("flight recorder capacities must be >= 1")
        self._env = env
        self._tracer = tracer
        self.dirpath = Path(dirpath) if dirpath else None
        self.span_capacity = span_capacity
        self.max_bundles = max_bundles
        #: Ring of recently closed metric windows (newest last).
        self.windows: Deque[Dict[str, Any]] = deque(maxlen=window_capacity)
        #: Filenames of bundles written, in dump order.
        self.bundles: List[str] = []
        #: Bundles skipped after :attr:`max_bundles` was reached.
        self.skipped = 0
        #: The most recent bundle document (for tests / in-memory use).
        self.last_bundle: Optional[Dict[str, Any]] = None
        self._seq = 0
        self._explain: Optional[Dict[str, Any]] = None

    # -- capture -----------------------------------------------------------------

    def record_windows(self, idx: int, t_end: float,
                       closed: List[Tuple[Any, Any]]) -> None:
        """Retain one batch of closed windows (called by GMonitor)."""
        for series, value in closed:
            self.windows.append({
                "idx": idx, "t_end_s": t_end, "series": series.key,
                "kind": series.kind, "value": value,
            })

    def attach_explanation(self, doc: Dict[str, Any]) -> None:
        """Carry the active explain deltas into subsequent bundles.

        Typically the explanation of the current run against a committed
        baseline — bundles then show the regression context a fault or
        alert happened under.
        """
        self._explain = doc

    # -- dump triggers -----------------------------------------------------------

    def dump_for_alert(self, monitor, alert, t_end: float) -> Optional[str]:
        """Bundle for one fired alert, stamped at the end of its window."""
        return self._dump(f"alert:{alert.rule}", alert.to_dict(), monitor,
                          t_end)

    def record_fault(self, cluster, event) -> Optional[str]:
        """Bundle for one applied chaos event (ChaosEngine hook)."""
        detail = {
            "kind": event.kind.value, "at_s": event.at,
            "worker": event.worker, "device": event.device,
        }
        return self.dump(f"fault:{event.kind.value}", detail=detail,
                         monitor=cluster.obs.monitor)

    # -- the bundle --------------------------------------------------------------

    def _trace_slice(self, at: float) -> List[Dict[str, Any]]:
        """The last :attr:`span_capacity` events that ended by ``at``."""
        tracer = self._tracer
        if tracer is None or not tracer.enabled:
            return []
        pid_names, tid_names = tracer.lane_names()
        # Backwards from the end: an event ending after ``at`` is recent.
        ended = (e for e in reversed(tracer.events) if e.ts + e.dur <= at)
        out = []
        for e in reversed(list(islice(ended, self.span_capacity))):
            out.append({
                "name": e.name, "cat": e.cat, "ph": e.ph,
                "ts": e.ts, "dur": e.dur,
                "process": pid_names.get(e.pid, str(e.pid)),
                "thread": tid_names.get((e.pid, e.tid), str(e.tid)),
                "args": dict(e.args) if e.args else {},
            })
        return out

    def _bundle(self, reason: str, detail: Optional[Dict[str, Any]],
                monitor, at: float) -> Dict[str, Any]:
        """The bundle document (no file write) for ``reason``, stamped at
        ``at``."""
        if monitor is not None:
            monitor.sync()
        doc: Dict[str, Any] = {
            "schema": POSTMORTEM_SCHEMA,
            "reason": reason,
            "detail": detail or {},
            "triggered_at_s": at,
            "seq": self._seq,
            "trace_slice": self._trace_slice(at),
            "metric_windows": list(self.windows),
            "health": {}, "alerts": [], "slos": [], "trends": {},
            "explain": self._explain,
        }
        if monitor is not None:
            doc["health"] = monitor.health.summary()
            doc["alerts"] = monitor.alerts.summary()
            doc["slos"] = monitor.slo.summary()
            doc["trends"] = monitor.trends()
        return doc

    def dump(self, reason: str, detail: Optional[Dict[str, Any]] = None,
             monitor=None) -> Optional[str]:
        """Write one bundle, stamped now; returns its filename (None once
        capped)."""
        return self._dump(reason, detail, monitor, float(self._env.now))

    def _dump(self, reason: str, detail: Optional[Dict[str, Any]], monitor,
              at: float) -> Optional[str]:
        if len(self.bundles) >= self.max_bundles:
            self.skipped += 1
            return None
        doc = self._bundle(reason, detail, monitor, at)
        filename = f"postmortem-{self._seq:03d}-{_slug(reason)}.json"
        self._seq += 1
        if self.dirpath is not None:
            self.dirpath.mkdir(parents=True, exist_ok=True)
            (self.dirpath / filename).write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n")
        self.bundles.append(filename)
        self.last_bundle = doc
        return filename


# ---------------------------------------------------------------------------
# Text rendering (the `repro postmortem` CLI)
# ---------------------------------------------------------------------------

def render_bundle(doc: Dict[str, Any], spans: int = 12) -> str:
    """Human-readable post-mortem report for one bundle."""
    lines = [f"post-mortem: {doc.get('reason')} "
             f"at t={doc.get('triggered_at_s', 0.0):.3f} s"]
    detail = doc.get("detail") or {}
    if detail:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(detail.items())
                          if v is not None)
        lines.append(f"  detail: {pairs}")
    health = doc.get("health") or {}
    if health:
        workers = health.get("workers") or {}
        worst = sorted(workers.items(), key=lambda kv: kv[1])[:4]
        worst_txt = ", ".join(f"{w}={s:.0f}" for w, s in worst)
        lines.append(f"  health: cluster {health.get('cluster', 100.0):.0f}"
                     + (f"  (lowest workers: {worst_txt})" if worst else ""))
    alerts = doc.get("alerts") or []
    if alerts:
        lines.append(f"  alert timeline ({len(alerts)}):")
        for a in alerts[-8:]:
            state = ("resolved@{:.1f}s".format(a["resolved_at_s"])
                     if a.get("resolved_at_s") is not None else "ACTIVE")
            lines.append(f"    [{a.get('severity', '?'):<8}] "
                         f"{a.get('rule')} on {a.get('series')} "
                         f"fired@{a.get('fired_at_s', 0.0):.1f}s {state}")
    trends = doc.get("trends") or {}
    moving = sorted((t for t in trends.values()
                     if abs(t.get("slope") or 0.0) > 0.0),
                    key=lambda t: -abs(t.get("zscore") or 0.0))[:5]
    if moving:
        lines.append("  trending series:")
        for t in moving:
            lines.append(f"    {t.get('name'):<36} slope "
                         f"{t.get('slope', 0.0):+.4g}/win "
                         f"z {t.get('zscore', 0.0):+.2f} "
                         f"({t.get('direction')})")
    windows = doc.get("metric_windows") or []
    if windows:
        lines.append(f"  metric windows retained: {len(windows)} "
                     f"(last idx {windows[-1].get('idx')})")
    slice_ = doc.get("trace_slice") or []
    if slice_:
        lines.append(f"  trace slice: {len(slice_)} recent events, "
                     f"tail:")
        for e in slice_[-spans:]:
            lines.append(f"    {e.get('ts', 0.0):9.3f}s "
                         f"{e.get('dur', 0.0):8.3f}s  "
                         f"{e.get('process', '?')}/{e.get('thread', '?')}  "
                         f"{e.get('name')}")
    explain = doc.get("explain")
    if explain:
        from repro.obs.explain import render_explanation
        lines.append("  active explain deltas:")
        for ln in render_explanation(explain, top_k=3).splitlines():
            lines.append(f"    {ln}")
    return "\n".join(lines)


def load_bundles(path: str) -> List[Tuple[str, Dict[str, Any]]]:
    """(filename, doc) pairs from a bundle file or a directory of them."""
    p = Path(path)
    files = (sorted(p.glob("postmortem-*.json")) if p.is_dir() else [p])
    out: List[Tuple[str, Dict[str, Any]]] = []
    for f in files:
        out.append((f.name, json.loads(f.read_text())))
    return out
