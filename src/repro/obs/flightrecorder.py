"""Flight recorder: bounded post-mortem capture for faults and alerts.

Black-box style: the recorder keeps nothing while the run goes on.  When
an alert fires or the chaos engine injects a fault, it slices what the
sinks already hold — the tail of the tracer's spans and of the monitor's
closed metric windows — and writes a **post-mortem bundle** (one JSON
document with the trace slice, metric windows, health scores and alert
timeline) to a directory, rendered later by ``repro
postmortem``, which derives the trending series from the bundle's own
windows.

The dump is host-side slicing and file I/O.  It never touches the
simulation event heap, so enabling the recorder keeps the simulated clock
bit-identical (asserted in ``tests/obs/test_monitor.py``).
"""

from __future__ import annotations

import json
import re
from itertools import islice
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.common.files import write_replacing
from repro.obs.dashboard import trend_of, window_value
from repro.obs.schema import (  # noqa: F401  (validator re-exported)
    POSTMORTEM_SCHEMA, validate_postmortem_bundle)

#: Spans and metric window values a bundle carries (the newest), and the
#: bundle cap of a cluster's recorder (a runaway alert storm must not fill
#: the disk).
SPAN_CAPACITY = 512
WINDOW_CAPACITY = 512
MAX_BUNDLES = 16

_SLUG_RE = re.compile(r"[^a-zA-Z0-9_.-]+")


def _slug(text: str) -> str:
    return _SLUG_RE.sub("-", text).strip("-") or "event"


class FlightRecorder:
    """Bundle dumps; one per cluster, always passive.

    ``dirpath`` may be None (bundles are then only kept in memory via
    :attr:`last_bundle`, still bounded by :data:`MAX_BUNDLES`).
    """

    def __init__(self, env: Any, tracer=None,
                 dirpath: Optional[str] = None):
        self._env = env
        self._tracer = tracer
        self.dirpath = Path(dirpath) if dirpath else None
        #: Filenames of bundles written, in dump order.
        self.bundles: List[str] = []
        #: Bundles skipped after :data:`MAX_BUNDLES` was reached.
        self.skipped = 0
        #: The most recent bundle document (for tests / in-memory use).
        self.last_bundle: Optional[Dict[str, Any]] = None

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
        """The last :data:`SPAN_CAPACITY` events that ended by ``at``."""
        tracer = self._tracer
        if tracer is None or not tracer.enabled:
            return []
        pid_names, tid_names = tracer.lane_names()
        # Backwards from the end: an event ending after ``at`` is recent.
        ended = (e for e in reversed(tracer.events) if e.ts + e.dur <= at)
        out = []
        for e in reversed(list(islice(ended, SPAN_CAPACITY))):
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
            "trace_slice": self._trace_slice(at),
            "metric_windows": [],
            "health": {}, "alerts": [],
        }
        if monitor is not None:
            doc["metric_windows"] = _metric_windows(monitor)
            doc["health"] = monitor.health.summary()
            doc["alerts"] = monitor.alerts.summary()
        return doc

    def dump(self, reason: str, detail: Optional[Dict[str, Any]] = None,
             monitor=None) -> Optional[str]:
        """Write one bundle, stamped now; returns its filename (None once
        capped)."""
        return self._dump(reason, detail, monitor, float(self._env.now))

    def _dump(self, reason: str, detail: Optional[Dict[str, Any]], monitor,
              at: float) -> Optional[str]:
        if len(self.bundles) >= MAX_BUNDLES:
            self.skipped += 1
            return None
        doc = self._bundle(reason, detail, monitor, at)
        filename = f"postmortem-{len(self.bundles):03d}-{_slug(reason)}.json"
        if self.dirpath is not None:
            write_replacing(self.dirpath / filename,
                            (json.dumps(doc, indent=2, sort_keys=True), "\n"))
        self.bundles.append(filename)
        self.last_bundle = doc
        return filename


def _metric_windows(monitor) -> List[Dict[str, Any]]:
    """The last :data:`WINDOW_CAPACITY` closed values of the monitor's
    store, in window order and then closing order.  The ``health.*``
    series are scored after the close, not closed, and are left out."""
    rows = sorted(
        (idx, pos, s, value)
        for pos, s in enumerate(monitor.store.in_closing_order())
        if not s.name.startswith("health.")
        for idx, value in islice(reversed(s.points), WINDOW_CAPACITY))
    return [{"idx": idx, "t_end_s": (idx + 1) * monitor.window_s,
             "series": s.key, "kind": s.kind, "value": value}
            for idx, _pos, s, value in rows[-WINDOW_CAPACITY:]]


def _trending(windows: List[Dict[str, Any]]) -> List[Tuple[str, tuple]]:
    """``(series key, trend)`` of the bundle's series that rise or fall
    over their last windows, steepest first (at most five)."""
    values: Dict[str, List[float]] = {}
    for w in windows:
        values.setdefault(w["series"], []).append(window_value(w["value"]))
    trends = [(key, trend_of(vs)) for key, vs in values.items()]
    moving = [(key, t) for key, t in trends if t and t[1] != "flat"]
    return sorted(moving, key=lambda kt: (-kt[1][2], kt[0]))[:5]


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
    windows = doc.get("metric_windows") or []
    moving = _trending(windows)
    if moving:
        lines.append("  trending series:")
        for key, (slope, direction, _steep) in moving:
            lines.append(f"    {key:<36} slope {slope:+.4g}/win "
                         f"({direction})")
    if windows:
        lines.append(f"  metric windows retained: {len(windows)} "
                     f"(last idx {windows[-1].get('idx')})")
    slice_ = doc.get("trace_slice") or []
    if slice_:
        lines.append(f"  trace slice: {len(slice_)} recent events, "
                     f"tail:")
        for e in slice_[len(slice_) - spans:]:
            lines.append(f"    {e.get('ts', 0.0):9.3f}s "
                         f"{e.get('dur', 0.0):8.3f}s  "
                         f"{e.get('process', '?')}/{e.get('thread', '?')}  "
                         f"{e.get('name')}")
    return "\n".join(lines)


def load_bundles(path: str) -> List[Tuple[str, Dict[str, Any]]]:
    """(filename, doc) pairs from a bundle file or a directory of them."""
    p = Path(path)
    files = (sorted(p.glob("postmortem-*.json")) if p.is_dir() else [p])
    out: List[Tuple[str, Dict[str, Any]]] = []
    for f in files:
        out.append((f.name, json.loads(f.read_text())))
    return out
