"""GXplain: causal attribution of makespan regressions.

``compare_summaries`` (the regression gate) says *that* a run got slower;
this module says *why*.  Two GProfiler summaries — a baseline and a
current run — are aligned by critical-path structure, operator, and
device, and the makespan delta is attributed to a **ranked list of
causes** whose magnitudes sum to the observed delta (up to a recorded
residual of sub-noise-floor buckets).

The attribution leans on the GProfiler invariant that the critical-path
segments partition the job window exactly: each segment is folded into
one of a fixed set of *buckets* —

* ``recovery``      — segments re-executing lost work (``recover:*``),
* ``sched.wait``    — uncovered stretches (nothing runnable),
* ``sched.submit``  — job-submission overhead,
* ``shuffle``       — exchange segments,
* and, for ordinary task segments, their fine-grained category split
  (``kernel`` / ``h2d`` / ``d2h`` / ``cpu`` / ``hdfs`` / ``shuffle`` /
  ``sched.gaps``).

Because both summaries bucket to the same keys, per-bucket deltas sum
exactly to the makespan delta; buckets whose |delta| clears the noise
floor become causes, ranked by magnitude, each carrying drill-down
evidence (which operator, which device) mined from the summaries'
operator shares and device utilization tables.

Everything here is offline arithmetic over summary dicts — it never
touches the simulated clock.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.schema import (  # noqa: F401  (validator re-exported)
    EXPLAIN_SCHEMA, validate_explanation)

#: Human labels for the attribution buckets, in a stable order.
_BUCKET_LABELS = {
    "kernel": "GPU kernel time on the critical path",
    "h2d": "host->device copy time on the critical path",
    "d2h": "device->host copy time on the critical path",
    "cpu": "CPU execution time on the critical path",
    "hdfs": "HDFS I/O time on the critical path",
    "shuffle": "shuffle/exchange time on the critical path",
    "sched.gaps": "in-task scheduling gaps on the critical path",
    "sched.wait": "scheduling wait (no task runnable)",
    "sched.submit": "job submission overhead",
    "recovery": "failure-recovery re-execution on the critical path",
}

#: Operator share keys that feed evidence for each bucket.
_BUCKET_SHARE_KEY = {
    "kernel": "kernel", "h2d": "h2d", "d2h": "d2h",
    "cpu": "cpu", "hdfs": "hdfs", "shuffle": "shuffle",
}


def _segments(summary: Dict[str, Any]) -> List[Dict[str, Any]]:
    cp = summary.get("critical_path") or {}
    segs = cp.get("segments")
    return segs if isinstance(segs, list) else []


def attribution_buckets(summary: Dict[str, Any]) -> Dict[str, float]:
    """Fold one summary's critical-path segments into named buckets.

    The buckets partition the makespan exactly (segments partition the
    window; a task segment's categories partition the segment).
    """
    buckets: Dict[str, float] = {k: 0.0 for k in _BUCKET_LABELS}
    for seg in _segments(summary):
        dur = float(seg.get("dur_s") or 0.0)
        kind = seg.get("kind")
        name = str(seg.get("name") or "")
        if name.startswith("recover:"):
            buckets["recovery"] += dur
        elif kind == "wait":
            buckets["sched.wait"] += dur
        elif kind == "submit":
            buckets["sched.submit"] += dur
        elif kind == "shuffle":
            buckets["shuffle"] += dur
        else:
            cats = seg.get("categories") or {}
            claimed = 0.0
            for cat, secs in cats.items():
                if not isinstance(secs, (int, float)):
                    continue
                key = "sched.gaps" if cat == "sched" else str(cat)
                buckets[key] = buckets.get(key, 0.0) + float(secs)
                claimed += float(secs)
            # Keep the partition exact even for a malformed segment.
            if dur - claimed > 1e-12:
                buckets["cpu"] += dur - claimed
    return buckets


def _op_cat_seconds(summary: Dict[str, Any], cat: str) -> Dict[str, float]:
    """Per-operator seconds spent in ``cat`` (share x wall)."""
    out: Dict[str, float] = {}
    for op, entry in (summary.get("operators") or {}).items():
        if not isinstance(entry, dict):
            continue
        wall = entry.get("wall_s") or 0.0
        share = (entry.get("shares") or {}).get(cat, 0.0)
        if isinstance(wall, (int, float)) and isinstance(share, (int, float)):
            out[str(op)] = float(wall) * float(share)
    return out


def _device_metric(summary: Dict[str, Any], field: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for dev, entry in (summary.get("devices") or {}).items():
        val = (entry or {}).get(field)
        if isinstance(val, (int, float)):
            out[str(dev)] = float(val)
    return out


def _top_deltas(base: Dict[str, float], cur: Dict[str, float],
                floor: float, limit: int = 3) -> List[Tuple[str, float, float, float]]:
    """(name, base, cur, delta) rows sorted by |delta|, above ``floor``."""
    rows = []
    for name in sorted(set(base) | set(cur)):
        b, c = base.get(name, 0.0), cur.get(name, 0.0)
        if abs(c - b) >= floor:
            rows.append((name, b, c, c - b))
    rows.sort(key=lambda r: (-abs(r[3]), r[0]))
    return rows[:limit]


def _recovery_evidence(base: Dict[str, Any], cur: Dict[str, Any]
                       ) -> List[Dict[str, Any]]:
    def recov(summary: Dict[str, Any]) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for seg in _segments(summary):
            name = str(seg.get("name") or "")
            if name.startswith("recover:"):
                op = name.split(":", 1)[1]
                counts[op] = counts.get(op, 0) + 1
        return counts

    b, c = recov(base), recov(cur)
    items: List[Dict[str, Any]] = []
    for op in sorted(set(b) | set(c), key=lambda o: -(c.get(o, 0) - b.get(o, 0))):
        db, dc = b.get(op, 0), c.get(op, 0)
        if db == dc:
            continue
        items.append({
            "kind": "recovery", "name": op,
            "base": float(db), "current": float(dc), "delta_s": 0.0,
            "label": (f"recovery segments for `{op}`: "
                      f"{db} -> {dc} on the critical path"),
        })
    return items


def _segment_count_evidence(base: Dict[str, Any], cur: Dict[str, Any],
                            kind: str, what: str) -> List[Dict[str, Any]]:
    nb = sum(1 for s in _segments(base) if s.get("kind") == kind)
    nc = sum(1 for s in _segments(cur) if s.get("kind") == kind)
    if nb == nc:
        return []
    return [{"kind": "segments", "name": kind,
             "base": float(nb), "current": float(nc), "delta_s": 0.0,
             "label": f"{what} segments: {nb} -> {nc}"}]


def _evidence_for(key: str, base: Dict[str, Any], cur: Dict[str, Any],
                  floor: float) -> List[Dict[str, Any]]:
    """Drill-down rows supporting one bucket cause (informational)."""
    items: List[Dict[str, Any]] = []
    share_key = _BUCKET_SHARE_KEY.get(key)
    if share_key is not None:
        op_rows = _top_deltas(_op_cat_seconds(base, share_key),
                              _op_cat_seconds(cur, share_key), floor)
        for name, b, c, d in op_rows:
            items.append({
                "kind": "operator", "name": name,
                "base": b, "current": c, "delta_s": d,
                "label": (f"operator `{name}` {share_key} time "
                          f"{d:+.3f} s ({b:.3f} -> {c:.3f})"),
            })
    if key == "kernel":
        dev_field = "kernel_busy_s"
    elif key in ("h2d", "d2h"):
        dev_field = "copy_busy_s"
    else:
        dev_field = None
    if dev_field is not None:
        for name, b, c, d in _top_deltas(_device_metric(base, dev_field),
                                         _device_metric(cur, dev_field),
                                         floor):
            items.append({
                "kind": "device", "name": name,
                "base": b, "current": c, "delta_s": d,
                "label": (f"device {name} {dev_field.replace('_', ' ')} "
                          f"{d:+.3f} s ({b:.3f} -> {c:.3f})"),
            })
    if key == "recovery":
        items.extend(_recovery_evidence(base, cur))
    elif key == "sched.wait":
        items.extend(_segment_count_evidence(base, cur, "wait",
                                             "scheduling-wait"))
    elif key == "sched.submit":
        items.extend(_segment_count_evidence(base, cur, "submit",
                                             "job-submit"))
    return items


def _operator_changes(base: Dict[str, Any], cur: Dict[str, Any]
                      ) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    base_ops = base.get("operators") or {}
    cur_ops = cur.get("operators") or {}

    def row(name: str, entry: Any) -> Dict[str, Any]:
        wall = (entry or {}).get("wall_s") if isinstance(entry, dict) else None
        return {"name": name,
                "wall_s": float(wall) if isinstance(wall, (int, float))
                else 0.0}

    added = [row(op, cur_ops[op]) for op in sorted(set(cur_ops) - set(base_ops))]
    removed = [row(op, base_ops[op]) for op in sorted(set(base_ops) - set(cur_ops))]
    return added, removed


def default_noise_floor(baseline: Dict[str, Any],
                        current: Dict[str, Any]) -> float:
    """0.5% of the larger makespan, at least a millisecond."""
    scale = max(float(baseline.get("makespan_s") or 0.0),
                float(current.get("makespan_s") or 0.0), 0.0)
    return max(1e-3, 0.005 * scale)


def explain_summaries(current: Dict[str, Any], baseline: Dict[str, Any],
                      noise_floor_s: Optional[float] = None
                      ) -> Dict[str, Any]:
    """Attribute the makespan delta between two summaries to ranked causes.

    Returns a ``repro.obs.explain/v1`` document.  The invariant the CI
    gate relies on: ``sum(cause.delta_s) + residual_s == makespan_delta_s``
    (exactly, up to float addition), residual being the sum of buckets
    below the noise floor plus any tick-level critical-path slack.
    """
    floor = (default_noise_floor(baseline, current)
             if noise_floor_s is None else float(noise_floor_s))
    base_m = float(baseline.get("makespan_s") or 0.0)
    cur_m = float(current.get("makespan_s") or 0.0)
    delta_m = cur_m - base_m

    base_buckets = attribution_buckets(baseline)
    cur_buckets = attribution_buckets(current)
    causes: List[Dict[str, Any]] = []
    attributed = 0.0
    for key in sorted(set(base_buckets) | set(cur_buckets)):
        b = base_buckets.get(key, 0.0)
        c = cur_buckets.get(key, 0.0)
        d = c - b
        if abs(d) < floor:
            continue
        attributed += d
        causes.append({
            "key": key,
            "label": _BUCKET_LABELS.get(key, key),
            "base_s": b,
            "current_s": c,
            "delta_s": d,
            "share_of_delta": (d / delta_m) if abs(delta_m) >= floor else None,
            "evidence": _evidence_for(key, baseline, current,
                                      min(floor, abs(d) / 4.0)),
        })
    causes.sort(key=lambda cause: (-abs(cause["delta_s"]), cause["key"]))
    for rank, cause in enumerate(causes, start=1):
        cause["rank"] = rank

    added, removed = _operator_changes(baseline, current)
    return {
        "schema": EXPLAIN_SCHEMA,
        "baseline": {"source": baseline.get("source"), "makespan_s": base_m},
        "current": {"source": current.get("source"), "makespan_s": cur_m},
        "makespan_delta_s": delta_m,
        "noise_floor_s": floor,
        "attributed_delta_s": attributed,
        "residual_s": delta_m - attributed,
        "causes": causes,
        "operators_added": added,
        "operators_removed": removed,
    }


# -- text rendering ----------------------------------------------------------------
def render_explanation(doc: Dict[str, Any], top_k: int = 5) -> str:
    """Human-readable ranked-cause report for one explain document."""
    base_m = doc["baseline"]["makespan_s"]
    cur_m = doc["current"]["makespan_s"]
    delta = doc["makespan_delta_s"]
    floor = doc["noise_floor_s"]
    lines = [f"explain: makespan {delta:+.3f} s "
             f"({base_m:.3f} s -> {cur_m:.3f} s), "
             f"noise floor {floor:.3f} s"]
    causes = doc.get("causes") or []
    if not causes:
        lines.append("  no causes above the noise floor")
    for cause in causes[:top_k]:
        share = cause.get("share_of_delta")
        share_txt = f" ({share:+.0%} of delta)" if share is not None else ""
        lines.append(f"  {cause['rank']}. {cause['delta_s']:+8.3f} s"
                     f"{share_txt}  {cause['label']}")
        for ev in (cause.get("evidence") or [])[:4]:
            lines.append(f"       - {ev['label']}")
    if len(causes) > top_k:
        lines.append(f"  ... {len(causes) - top_k} further cause(s) "
                     f"below rank {top_k}")
    for row in doc.get("operators_added") or []:
        lines.append(f"  + operator `{row['name']}` appeared "
                     f"({row['wall_s']:.3f} s wall)")
    for row in doc.get("operators_removed") or []:
        lines.append(f"  - operator `{row['name']}` disappeared "
                     f"({row['wall_s']:.3f} s wall in baseline)")
    residual = doc.get("residual_s", 0.0)
    if causes:
        lines.append(f"  residual (sub-floor buckets): {residual:+.3f} s")
    return "\n".join(lines)
