"""Reference GProfiler: the scanning implementations, kept as the oracle.

These are the analyses as they were before :class:`ProfileTrace` grew its
index: every query rescans ``trace.spans`` (operators x device spans x
workers for :func:`classify_operators`).  They read nothing of the index —
only ``trace.spans`` — so ``tests/obs/test_profile_differential.py`` can hold
the indexed profiler to them exactly, section by section.  Test-only: in
the style of ``barriered()`` and ``heap_only()``, the slow path lives on
under ``tests/`` and nowhere else.

Known, intended difference: an operator name that occurs several times is
keyed once here and the **last** occurrence overwrites ``wall_s`` and
``shares`` (the defect the indexed profiler fixes), so ``operators`` is
comparable only where names are unique.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.profile import (
    CATEGORIES, SUMMARY_SCHEMA, TICK_S, Interval, ProfileTrace, PSpan,
    Segment, _clip, _device_cat, _intersect, _length, _union)


def by_cat(trace: ProfileTrace, *cats: str) -> List[PSpan]:
    wanted = set(cats)
    return [s for s in trace.spans if s.cat in wanted]


def window(trace: ProfileTrace) -> Interval:
    """The analysis window: union of job spans, else full span extent."""
    jobs = [s for s in by_cat(trace, "job") if s.name.startswith("job:")]
    pool = jobs or trace.spans
    if not pool:
        return 0.0, 0.0
    return (min(s.ts for s in pool), max(s.end for s in pool))


def _subtract(base: List[Interval],
              minus: List[Interval]) -> List[Interval]:
    """``base − minus``; both inputs must be merged/sorted (``_union``)."""
    out: List[Interval] = []
    for lo, hi in base:
        cursor = lo
        for mlo, mhi in minus:
            if mhi <= cursor or mlo >= hi:
                continue
            if mlo > cursor:
                out.append((cursor, mlo))
            cursor = max(cursor, mhi)
            if cursor >= hi:
                break
        if cursor < hi:
            out.append((cursor, hi))
    return out


def _fine_spans_for_worker(trace: ProfileTrace,
                           worker: str) -> Dict[str, List[Interval]]:
    """Fine-grained activity intervals attributable to one worker: its GPU
    devices' engine lanes plus its HDFS lane."""
    out: Dict[str, List[Interval]] = {"kernel": [], "h2d": [], "d2h": [],
                                      "hdfs": []}
    gpu_prefix = f"{worker}-gpu"
    for s in by_cat(trace, "gpu.device"):
        if s.process.startswith(gpu_prefix):
            out[_device_cat(s)].append((s.ts, s.end))
    for s in by_cat(trace, "hdfs"):
        if s.process == worker:
            out["hdfs"].append((s.ts, s.end))
    return out


def _attribute_window(t0: float, t1: float,
                      fine: Dict[str, List[Interval]],
                      rest_cat: str = "cpu") -> Dict[str, float]:
    """Partition ``[t0, t1]`` by coverage priority; remainder → rest_cat."""
    remaining = [(t0, t1)]
    out: Dict[str, float] = {}
    for cat in ("kernel", "h2d", "d2h", "shuffle", "hdfs"):
        cover = _union(_clip(fine.get(cat, []), t0, t1))
        if not cover:
            continue
        claimed = _intersect(remaining, cover)
        if claimed:
            out[cat] = out.get(cat, 0.0) + _length(claimed)
            remaining = _subtract(remaining, _union(claimed))
    rest = _length(remaining)
    if rest > 0.0:
        out[rest_cat] = out.get(rest_cat, 0.0) + rest
    return out


def extract_critical_path(trace: ProfileTrace) -> List[Segment]:
    """Backward walk from the last job end to the window start.

    At each cursor the chain element is the candidate span reaching
    furthest toward the cursor (task, exchange, recovery or ``job.submit``
    span); uncovered stretches become ``wait`` segments (scheduling).  The
    returned segments partition the window exactly, so their category
    attribution sums to the makespan.
    """
    lo, hi = window(trace)
    if hi - lo <= TICK_S:
        return []
    chain: List[PSpan] = list(by_cat(trace, "task", "shuffle", "recovery"))
    chain += [s for s in by_cat(trace, "job") if s.name == "job.submit"]
    worker_fine: Dict[str, Dict[str, List[Interval]]] = {}
    segments: List[Segment] = []

    def fine_for(span: PSpan) -> Dict[str, List[Interval]]:
        worker = span.process
        if worker not in worker_fine:
            worker_fine[worker] = _fine_spans_for_worker(trace, worker)
        return worker_fine[worker]

    def close(seg_span: PSpan, t0: float, t1: float) -> Segment:
        if seg_span.cat == "shuffle":
            return Segment(t0, t1, "shuffle", seg_span.name,
                           {"shuffle": t1 - t0})
        if seg_span.cat == "job":
            return Segment(t0, t1, "submit", seg_span.name,
                           {"sched": t1 - t0})
        cats = _attribute_window(t0, t1, fine_for(seg_span))
        return Segment(t0, t1, "task", seg_span.name, cats)

    cursor = hi
    while cursor > lo + TICK_S:
        best: Optional[PSpan] = None
        best_reach = -math.inf
        for s in chain:
            if s.ts >= cursor - TICK_S:
                continue
            reach = min(s.end, cursor)
            # Prefer the furthest reach; tie-break on the earliest start
            # (covers more of the remaining window), then name for
            # determinism.
            key = (reach, -s.ts, s.name)
            if best is None or key > (best_reach, -best.ts, best.name):
                best, best_reach = s, reach
        if best is None:
            segments.append(Segment(lo, cursor, "wait", "wait",
                                    {"sched": cursor - lo}))
            break
        if best_reach < cursor - TICK_S:
            segments.append(Segment(best_reach, cursor, "wait", "wait",
                                    {"sched": cursor - best_reach}))
            cursor = best_reach
        start = max(best.ts, lo)
        segments.append(close(best, start, cursor))
        cursor = start
    segments.reverse()
    return segments


def classify_operators(trace: ProfileTrace) -> Dict[str, Dict[str, Any]]:
    """Per-operator wall-time shares and the bottleneck class.

    Each operator's wall window is partitioned (priority coverage over
    exact span occupancy) into kernel / h2d / d2h / shuffle / hdfs plus
    ``cpu`` (subtask running, nothing finer covering) and ``sched`` (no
    subtask running).  The class is ``<dominant>_bound`` with h2d+d2h
    folded into ``pcie``.
    """
    from repro.obs.metrics import Histogram
    out: Dict[str, Dict[str, Any]] = {}
    tasks = by_cat(trace, "task")
    exchanges = by_cat(trace, "shuffle")
    device = by_cat(trace, "gpu.device")
    hdfs = by_cat(trace, "hdfs")
    for op_span in by_cat(trace, "operator", "recovery"):
        op = op_span.args.get("op") or op_span.name.split(":", 1)[-1]
        t0, t1 = op_span.ts, op_span.end
        wall = t1 - t0
        if wall <= 0.0:
            continue
        op_tasks = [s for s in tasks if s.args.get("op") == op]
        workers = {s.process for s in op_tasks}
        fine: Dict[str, List[Interval]] = {
            "kernel": [], "h2d": [], "d2h": [], "hdfs": [], "shuffle": []}
        for s in device:
            if any(s.process.startswith(f"{w}-gpu") for w in workers):
                fine[_device_cat(s)].append((s.ts, s.end))
        for s in hdfs:
            if s.process in workers:
                fine["hdfs"].append((s.ts, s.end))
        for s in exchanges:
            if s.args.get("op") == op:
                fine["shuffle"].append((s.ts, s.end))
        busy = _union(_clip([(s.ts, s.end) for s in op_tasks], t0, t1))
        # Partition the operator window: engine categories first, then CPU
        # where a subtask ran, scheduling wait where none did.
        remaining = [(t0, t1)]
        shares: Dict[str, float] = {}
        for cat in ("kernel", "h2d", "d2h", "shuffle", "hdfs"):
            cover = _union(_clip(fine[cat], t0, t1))
            claimed = _intersect(remaining, cover)
            if claimed:
                shares[cat] = _length(claimed)
                remaining = _subtract(remaining, _union(claimed))
        cpu = _intersect(remaining, busy)
        if cpu:
            shares["cpu"] = _length(cpu)
            remaining = _subtract(remaining, _union(cpu))
        sched = _length(remaining)
        if sched > 0.0:
            shares["sched"] = sched
        grouped = {
            "pcie": shares.get("h2d", 0.0) + shares.get("d2h", 0.0),
            "kernel": shares.get("kernel", 0.0),
            "cpu": shares.get("cpu", 0.0),
            "sched": shares.get("sched", 0.0),
            "shuffle": shares.get("shuffle", 0.0),
            "hdfs": shares.get("hdfs", 0.0),
        }
        dominant = max(sorted(grouped), key=lambda k: grouped[k])
        # Per-subtask latency distribution: the task spans of this operator
        # fed through a Histogram so the text report can print percentiles.
        hist = Histogram("op.task_s", ())
        for s in op_tasks:
            hist.observe(s.dur)
        latency: Dict[str, float] = {}
        if op_tasks:
            latency = {
                "count": float(hist.count),
                "min": hist.vmin,
                "max": hist.vmax,
                "stddev": hist.stddev,
                "p50": hist.percentile(0.50),
                "p95": hist.percentile(0.95),
                "p99": hist.percentile(0.99),
            }
        out[op] = {
            "wall_s": wall,
            "parallelism": int(op_span.args.get("parallelism",
                                                len(op_tasks)) or 0),
            "shares": {k: v / wall for k, v in sorted(shares.items())},
            "class": f"{dominant}_bound",
            "dominant_share": grouped[dominant] / wall,
            "task_latency_s": latency,
        }
    return out


def device_utilization(trace: ProfileTrace) -> Dict[str, Dict[str, Any]]:
    """Per-device engine busy time, copy/compute overlap and PCIe rates.

    Two overlap views per device:

    ``copy_compute_overlap_pct``
        |copies ∩ kernels| / copy time — the device-local view (how much
        PCIe traffic hides under kernels on the *same* device).

    ``copy_pipeline_overlap_pct``
        |copies ∩ (kernels ∪ the owning worker's HDFS reads)| / copy time —
        the whole-pipeline view the streaming executor optimizes for.  On
        I/O-bound workloads kernel time is a sliver of copy time, capping
        the device-local metric low even at perfect pipelining; a copy that
        runs while the host is still streaming the input off disk *is*
        overlapped work, and this metric credits it.
    """
    lo, hi = window(trace)
    makespan = max(hi - lo, TICK_S)
    out: Dict[str, Dict[str, Any]] = {}
    by_device: Dict[str, List[PSpan]] = {}
    for s in by_cat(trace, "gpu.device"):
        by_device.setdefault(s.process, []).append(s)
    hdfs_by_worker: Dict[str, List[Interval]] = {}
    for s in by_cat(trace, "hdfs"):
        hdfs_by_worker.setdefault(s.process, []).append((s.ts, s.end))
    for name in sorted(by_device):
        spans = by_device[name]
        kernel = _union([(s.ts, s.end) for s in spans
                         if _device_cat(s) == "kernel"])
        copies = _union([(s.ts, s.end) for s in spans
                         if _device_cat(s) in ("h2d", "d2h")])
        overlap = _intersect(kernel, copies)
        # The worker that owns this device (process names are
        # "<worker>-gpu<idx>"); its disk activity counts as pipeline work.
        worker = name.rsplit("-gpu", 1)[0]
        pipeline_cover = _union(list(kernel)
                                + hdfs_by_worker.get(worker, []))
        pipeline_overlap = _intersect(copies, pipeline_cover)
        kernel_busy = _length(kernel)
        copy_busy = _length(copies)
        h2d_bytes = sum(int(s.args.get("nbytes", 0)) for s in spans
                        if _device_cat(s) == "h2d")
        d2h_bytes = sum(int(s.args.get("nbytes", 0)) for s in spans
                        if _device_cat(s) == "d2h")
        out[name] = {
            "kernel_busy_s": kernel_busy,
            "kernel_busy_pct": kernel_busy / makespan,
            "copy_busy_s": copy_busy,
            "copy_busy_pct": copy_busy / makespan,
            "copy_compute_overlap_s": _length(overlap),
            "copy_compute_overlap_pct": (_length(overlap) / copy_busy
                                         if copy_busy > 0 else 0.0),
            "copy_pipeline_overlap_s": _length(pipeline_overlap),
            "copy_pipeline_overlap_pct": (
                _length(pipeline_overlap) / copy_busy
                if copy_busy > 0 else 0.0),
            "h2d_bytes": h2d_bytes,
            "d2h_bytes": d2h_bytes,
            "pcie_bytes_per_s": ((h2d_bytes + d2h_bytes) / copy_busy
                                 if copy_busy > 0 else 0.0),
        }
    return out


def worker_occupancy(trace: ProfileTrace) -> Dict[str, Dict[str, Any]]:
    """Per-worker slot-lane busy fraction over the analysis window."""
    lo, hi = window(trace)
    makespan = max(hi - lo, TICK_S)
    lanes: Dict[Tuple[str, str], List[Interval]] = {}
    for s in by_cat(trace, "task"):
        if s.thread.startswith("slot"):
            lanes.setdefault((s.process, s.thread), []).append((s.ts, s.end))
    out: Dict[str, Dict[str, Any]] = {}
    for (worker, slot), intervals in sorted(lanes.items()):
        entry = out.setdefault(worker, {"slots": 0, "slot_busy_s": 0.0})
        entry["slots"] += 1
        entry["slot_busy_s"] += _length(_union(intervals))
    for worker, entry in out.items():
        entry["occupancy_pct"] = (entry["slot_busy_s"]
                                  / (entry["slots"] * makespan))
    return out


def summarize(trace: ProfileTrace,
              source: str = "tracer") -> Dict[str, Any]:
    """The full machine-readable profile summary (see SUMMARY_SCHEMA)."""
    lo, hi = window(trace)
    makespan = hi - lo
    segments = extract_critical_path(trace)
    categories = {cat: 0.0 for cat in CATEGORIES}
    for seg in segments:
        for cat, seconds in seg.categories.items():
            categories[cat] = categories.get(cat, 0.0) + seconds
    operators = classify_operators(trace)
    devices = device_utilization(trace)
    workers = worker_occupancy(trace)
    jobs = [s.name[len("job:"):] for s in by_cat(trace, "job")
            if s.name.startswith("job:")]
    total_overlap = sum(d["copy_compute_overlap_s"] for d in devices.values())
    total_pipeline = sum(d["copy_pipeline_overlap_s"]
                         for d in devices.values())
    total_copy = sum(d["copy_busy_s"] for d in devices.values())
    return {
        "schema": SUMMARY_SCHEMA,
        "source": source,
        "jobs": jobs,
        "makespan_s": makespan,
        "clock_tick_s": TICK_S,
        "span_count": len(trace.spans),
        "critical_path": {
            "length_s": sum(seg.dur for seg in segments),
            "categories": categories,
            "segments": [
                {"t0": seg.t0, "t1": seg.t1, "dur_s": seg.dur,
                 "kind": seg.kind, "name": seg.name,
                 "categories": {k: v for k, v in
                                sorted(seg.categories.items())}}
                for seg in segments],
        },
        "operators": operators,
        "devices": devices,
        "workers": workers,
        "totals": {
            "kernel_busy_s": sum(d["kernel_busy_s"]
                                 for d in devices.values()),
            "copy_busy_s": total_copy,
            "copy_compute_overlap_pct": (total_overlap / total_copy
                                         if total_copy > 0 else 0.0),
            "copy_pipeline_overlap_pct": (total_pipeline / total_copy
                                          if total_copy > 0 else 0.0),
            "pcie_bytes": sum(d["h2d_bytes"] + d["d2h_bytes"]
                              for d in devices.values()),
        },
    }
