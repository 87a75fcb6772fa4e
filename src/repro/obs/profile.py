"""GProfiler: critical-path analysis, bottleneck attribution, regression gate.

GTrace (:mod:`repro.obs.trace`) answers "what happened when"; this module
answers the paper's evaluation questions (§6, Figs. 5–8): *where does the
makespan go* — PCIe transfers, kernel compute, JVM-side compute, scheduling
wait, shuffle, HDFS — and *did this change make it worse*.  It consumes a
finished :class:`~repro.obs.trace.Tracer` or an exported Chrome-trace JSON
file (so it works offline on ``traces/*.json``) and produces:

* **critical-path extraction** — a backward walk over the span DAG from the
  last job's finish to the first job's start, following task / exchange /
  submit edges.  The walk partitions the job window exactly, so the path's
  per-category attribution sums to the makespan to within float noise.
* **utilization timelines** — per device engine (kernel lane busy %, copy
  lanes busy %, copy-with-compute overlap %, PCIe bytes/s) and per-worker
  slot occupancy, all derived from exact span occupancy (copy spans record
  the engine-held window only — see ``CUDARuntime.transfer_op``).
* **bottleneck classification** — each operator's wall time is partitioned
  into kernel / h2d / d2h / shuffle / hdfs / cpu / sched shares; the
  dominating share names the class (``kernel_bound``, ``pcie_bound``, …).
  An operator name that occurs several times (one span per iteration of an
  iterative job) is one entry summed over its occurrences.
* **a regression gate** — :func:`compare_summaries` diffs two summaries
  against configurable relative thresholds; ``repro profile --baseline``
  exits non-zero on regression (wired into ``scripts/ci.sh``).

**The index.**  A :class:`ProfileTrace` reads its spans once, when it is
built, and every analysis above is answered from what that pass leaves:
spans bucketed by category; task spans bucketed by ``args["op"]`` and
sorted by start, exchange spans likewise; every ``gpu.device`` span
classified once (kernel / h2d / d2h) and attached to its owning worker by
one rule — the device process is named ``<worker>-gpu<idx>``, the worker is
``process.rsplit("-gpu", 1)[0]`` — and kept per (worker, engine category)
and per device as a start-sorted interval lane with a running-max-end
array; HDFS spans likewise per worker.  "The intervals of a lane that touch
``[t0, t1]``" is then two bisects and a slice, so a query costs the spans
it touches, not the trace.

Everything here is read-only analysis over recorded events: profiling a
trace never touches the simulation, and runs with tracing disabled simply
produce an empty profile.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate
from operator import attrgetter
from pathlib import Path
from typing import (Any, Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

from repro.obs.schema import (CATEGORIES, SUMMARY_SCHEMA, TICK_S,
                              validate_profile_summary)

__all__ = [
    "SUMMARY_SCHEMA",
    "CATEGORIES",
    "ProfileTrace",
    "PSpan",
    "Segment",
    "Delta",
    "summarize",
    "summarize_tracer",
    "profile_file",
    "compare_summaries",
    "default_thresholds",
    "validate_profile_summary",
    "render_text",
    "render_comparison",
]

#: The engine lanes of one device, in that priority order.
_ENGINES = ("kernel", "h2d", "d2h")

#: Microseconds (Chrome trace units) → seconds.
_US = 1e6

Interval = Tuple[float, float]


@dataclass(slots=True)
class PSpan:
    """One complete span, normalized to seconds with resolved lane names."""

    name: str
    cat: str
    ts: float
    dur: float
    pid: int
    tid: int
    process: str
    thread: str
    args: Dict[str, Any]
    end: float = field(init=False)

    def __post_init__(self) -> None:
        self.end = self.ts + self.dur


# -- interval arithmetic -----------------------------------------------------------
def _union(intervals: Iterable[Interval]) -> List[Interval]:
    """Merged, sorted, non-overlapping cover of ``intervals``."""
    out: List[Interval] = []
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if out and lo <= out[-1][1] + TICK_S:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out

def _length(intervals: List[Interval]) -> float:
    return sum(hi - lo for lo, hi in intervals)

def _clip(intervals: Iterable[Interval], lo: float,
          hi: float) -> List[Interval]:
    return [(max(a, lo), min(b, hi)) for a, b in intervals
            if min(b, hi) > max(a, lo)]

def _subtract(base: List[Interval],
              minus: List[Interval]) -> List[Interval]:
    """``base − minus``; both inputs must be merged/sorted (``_union``)."""
    out: List[Interval] = []
    j, n = 0, len(minus)
    for lo, hi in base:
        cursor = lo
        while j < n and minus[j][1] <= cursor:
            j += 1
        # minus[j] may reach into the next base interval: j stays on it.
        while j < n and minus[j][0] < hi:
            mlo, mhi = minus[j]
            if mlo > cursor:
                out.append((cursor, mlo))
            cursor = max(cursor, mhi)
            if cursor >= hi:
                break
            j += 1
        if cursor < hi:
            out.append((cursor, hi))
    return out

def _intersect(a: List[Interval], b: List[Interval]) -> List[Interval]:
    """Pairwise intersection of two merged interval lists."""
    out: List[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


class _Lane:
    """Intervals sorted by start, beside the running maximum of their ends.

    Nothing before the first member whose running maximum passes ``t0`` can
    touch ``[t0, t1]``, and nothing from the first member starting at
    ``t1`` on: the candidates are one slice (it may hold members that end
    before ``t0``; clipping drops them).
    """

    __slots__ = ("intervals", "starts", "reach")

    def __init__(self, intervals: Iterable[Interval] = ()):
        self.intervals = sorted(intervals)
        self.starts = [lo for lo, _ in self.intervals]
        self.reach = list(accumulate((hi for _, hi in self.intervals), max))

    def clipped(self, t0: float, t1: float) -> List[Interval]:
        """The members' parts inside ``[t0, t1]``, still start-sorted."""
        return _clip(self.intervals[bisect_right(self.reach, t0):
                                    bisect_left(self.starts, t1)], t0, t1)


_NO_LANE = _Lane()


def _device_cat(span: PSpan) -> str:
    return span.name if span.name in ("h2d", "d2h") else "kernel"


class ProfileTrace:
    """A parsed trace: spans with resolved process/thread names, in seconds.

    Build one with :meth:`from_tracer` (live run) or :meth:`from_chrome`
    (exported JSON document); :meth:`load` reads a file.  Construction
    indexes the spans (see the module docstring); the trace is read-only
    afterwards.
    """

    def __init__(self, spans: Sequence[PSpan],
                 processes: Dict[int, str],
                 threads: Dict[Tuple[int, int], str]):
        self.spans = list(spans)
        self.processes = dict(processes)
        self.threads = dict(threads)
        self._index()

    def _index(self) -> None:
        """The one pass over the spans every analysis is answered from."""
        cats: Dict[str, List[PSpan]] = defaultdict(list)
        #: Critical-path candidates (task / exchange / recovery spans, then
        #: the ``job.submit`` spans) and operator occurrences, trace order.
        self.chain: List[PSpan] = []
        self.op_spans: List[PSpan] = []
        #: op -> its tasks as (start, end, worker) rows sorted by start, and
        #: their durations in trace order (how the latency histogram is fed).
        self.op_tasks: Dict[Any, List[Tuple[float, float, str]]] = \
            defaultdict(list)
        self.op_task_durations: Dict[Any, List[float]] = defaultdict(list)
        exchanges: Dict[Any, List[Interval]] = defaultdict(list)
        #: (worker, "kernel" | "h2d" | "d2h" | "hdfs") -> that worker's lane.
        lanes: Dict[Tuple[str, str], List[Interval]] = defaultdict(list)
        #: device -> its owning worker, its three engines' intervals and the
        #: copy engines' bytes.
        self.devices: Dict[str, Dict[str, Any]] = {}
        #: (worker, slot thread) -> the task intervals run on that slot.
        self.slots: Dict[Tuple[str, str], List[Interval]] = defaultdict(list)
        submits: List[PSpan] = []
        for s in self.spans:
            cat = s.cat
            cats[cat].append(s)
            if cat == "gpu.device":
                device = self.devices.get(s.process)
                if device is None:
                    # The one device -> worker rule: "<worker>-gpu<idx>".
                    device = self.devices[s.process] = {
                        "worker": s.process.rsplit("-gpu", 1)[0],
                        "kernel": [], "h2d": [], "d2h": [],
                        "h2d_bytes": 0, "d2h_bytes": 0}
                engine = _device_cat(s)
                device[engine].append((s.ts, s.end))
                lanes[device["worker"], engine].append((s.ts, s.end))
                if engine != "kernel":
                    device[engine + "_bytes"] += int(s.args.get("nbytes", 0))
            elif cat == "task":
                self.chain.append(s)
                op = s.args.get("op")
                self.op_tasks[op].append((s.ts, s.end, s.process))
                self.op_task_durations[op].append(s.dur)
                if s.thread.startswith("slot"):
                    self.slots[s.process, s.thread].append((s.ts, s.end))
            elif cat == "hdfs":
                lanes[s.process, "hdfs"].append((s.ts, s.end))
            elif cat == "shuffle":
                self.chain.append(s)
                exchanges[s.args.get("op")].append((s.ts, s.end))
            elif cat == "recovery":
                self.chain.append(s)
                self.op_spans.append(s)
            elif cat == "operator":
                self.op_spans.append(s)
            elif cat == "job" and s.name == "job.submit":
                submits.append(s)
        self.chain += submits
        self._cats = cats
        for rows in self.op_tasks.values():
            rows.sort()
        self.op_exchanges = {op: _Lane(v) for op, v in exchanges.items()}
        self.worker_lanes = {key: _Lane(v) for key, v in lanes.items()}
        jobs = [s for s in cats.get("job", ()) if s.name.startswith("job:")]
        self.jobs = [s.name[len("job:"):] for s in jobs]
        pool = jobs or self.spans
        self._window = ((min(s.ts for s in pool), max(s.end for s in pool))
                        if pool else (0.0, 0.0))

    # -- constructors ----------------------------------------------------------
    @classmethod
    def from_tracer(cls, tracer: Any) -> "ProfileTrace":
        """From a live :class:`repro.obs.trace.Tracer` (timestamps already
        in seconds).  Spans share the tracer's ``args`` dicts."""
        processes, threads = tracer.lane_names()
        spans = [PSpan(e.name, e.cat, e.ts, e.dur, e.pid, e.tid,
                       processes.get(e.pid, f"pid{e.pid}"),
                       threads.get((e.pid, e.tid), f"tid{e.tid}"),
                       e.args or {})
                 for e in tracer.events if e.ph == "X"]
        return cls(spans, processes, threads)

    @classmethod
    def from_chrome(cls, doc: Dict[str, Any]) -> "ProfileTrace":
        """From a Chrome trace-event document (µs timestamps).  Spans share
        the document's ``args`` dicts."""
        events = doc.get("traceEvents", [])
        processes: Dict[int, str] = {}
        threads: Dict[Tuple[int, int], str] = {}
        for ev in events:
            if not isinstance(ev, dict) or ev.get("ph") != "M":
                continue
            name = (ev.get("args") or {}).get("name")
            if ev.get("name") == "process_name":
                processes[ev.get("pid")] = name
            elif ev.get("name") == "thread_name":
                threads[(ev.get("pid"), ev.get("tid"))] = name
        spans = []
        for ev in events:
            if not isinstance(ev, dict) or ev.get("ph") != "X":
                continue
            pid, tid = ev.get("pid", 0), ev.get("tid", 0)
            spans.append(PSpan(
                ev.get("name", ""), ev.get("cat", ""),
                float(ev.get("ts", 0.0)) / _US,
                float(ev.get("dur", 0.0)) / _US,
                pid, tid,
                processes.get(pid, f"pid{pid}"),
                threads.get((pid, tid), f"tid{tid}"),
                ev.get("args") or {}))
        return cls(spans, processes, threads)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ProfileTrace":
        """Read a Chrome trace JSON file from disk."""
        return cls.from_chrome(json.loads(Path(path).read_text()))

    # -- selectors -------------------------------------------------------------
    def by_cat(self, cat: str) -> List[PSpan]:
        """The spans of one category, in trace order."""
        return self._cats.get(cat, [])

    def window(self) -> Interval:
        """The analysis window: union of job spans, else full span extent."""
        return self._window

    def worker_cover(self, worker: str, cat: str, t0: float,
                     t1: float) -> List[Interval]:
        """What ``worker``'s ``cat`` lane (an engine category summed over
        its devices, or ``"hdfs"``) occupies of ``[t0, t1]``."""
        return self.worker_lanes.get((worker, cat), _NO_LANE).clipped(t0, t1)


# -- critical path -----------------------------------------------------------------
@dataclass
class Segment:
    """One stretch of the critical path."""

    t0: float
    t1: float
    kind: str                      # "task" / "shuffle" / "submit" / "wait"
    name: str
    categories: Dict[str, float] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _claim(t0: float, t1: float,
           covers: Iterable[Tuple[str, List[Interval]]]
           ) -> Tuple[Dict[str, float], List[Interval]]:
    """Partition ``[t0, t1]`` by coverage priority.

    ``covers`` pairs a category with its activity clipped to the window, in
    priority order; each claims what the earlier ones left.  Returns the
    seconds claimed per category and the unclaimed remainder.
    """
    remaining = [(t0, t1)]
    out: Dict[str, float] = {}
    for cat, clipped in covers:
        claimed = _intersect(remaining, _union(clipped))
        if claimed:
            out[cat] = _length(claimed)
            remaining = _subtract(remaining, _union(claimed))
    return out, remaining


def _attribute_window(trace: ProfileTrace, worker: str, t0: float,
                      t1: float) -> Dict[str, float]:
    """Partition a task's stretch ``[t0, t1]`` of the critical path over its
    worker's device engines and HDFS lane; the remainder is CPU time."""
    out, remaining = _claim(
        t0, t1, ((cat, trace.worker_cover(worker, cat, t0, t1))
                 for cat in _ENGINES + ("hdfs",)))
    rest = _length(remaining)
    if rest > 0.0:
        out["cpu"] = rest
    return out


def extract_critical_path(trace: ProfileTrace) -> List[Segment]:
    """Backward walk from the last job end to the window start.

    At each cursor the chain element is the candidate span reaching
    furthest toward the cursor (task, exchange, recovery or ``job.submit``
    span); uncovered stretches become ``wait`` segments (scheduling).  The
    returned segments partition the window exactly, so their category
    attribution sums to the makespan.

    Among candidates reaching equally far the earliest start wins (it
    covers more of the remaining window), then the greater name, then trace
    order.  The chain is sorted by exactly that preference once; the cursor
    only moves down, so the candidates (spans starting before it) are a
    shrinking prefix and the spans ending at or beyond it a growing set —
    the preferred one is the lowest rank seen so far.
    """
    lo, hi = trace.window()
    if hi - lo <= TICK_S:
        return []
    order = sorted(trace.chain, key=attrgetter("name"), reverse=True)
    order.sort(key=attrgetter("ts"))
    starts = [s.ts for s in order]
    # furthest[k]: rank of the span ending last among order[:k + 1].
    furthest: List[int] = []
    best_rank = 0
    for rank, s in enumerate(order):
        if s.end > order[best_rank].end:
            best_rank = rank
        furthest.append(best_rank)
    by_end = sorted(range(len(order)), key=lambda r: order[r].end,
                    reverse=True)
    segments: List[Segment] = []

    def close(seg_span: PSpan, t0: float, t1: float) -> Segment:
        if seg_span.cat == "shuffle":
            return Segment(t0, t1, "shuffle", seg_span.name,
                           {"shuffle": t1 - t0})
        if seg_span.cat == "job":
            return Segment(t0, t1, "submit", seg_span.name,
                           {"sched": t1 - t0})
        return Segment(t0, t1, "task", seg_span.name,
                       _attribute_window(trace, seg_span.process, t0, t1))

    cursor = hi
    reaching = len(order)          # lowest rank ending at/after the cursor
    seen = 0
    while cursor > lo + TICK_S:
        candidates = bisect_left(starts, cursor - TICK_S)
        if not candidates:
            segments.append(Segment(lo, cursor, "wait", "wait",
                                    {"sched": cursor - lo}))
            break
        while seen < len(by_end) and order[by_end[seen]].end >= cursor:
            reaching = min(reaching, by_end[seen])
            seen += 1
        if reaching < candidates:
            best = order[reaching]
        else:
            best = order[furthest[candidates - 1]]
            if best.end < cursor - TICK_S:
                segments.append(Segment(best.end, cursor, "wait", "wait",
                                        {"sched": cursor - best.end}))
                cursor = best.end
        start = max(best.ts, lo)
        segments.append(close(best, start, cursor))
        cursor = start
    segments.reverse()
    return segments


# -- operator bottlenecks ----------------------------------------------------------
def _occurrence_seconds(trace: ProfileTrace, t0: float, t1: float,
                        rows: List[Tuple[float, float, str]],
                        exchanges: _Lane) -> Dict[str, float]:
    """Partition one operator occurrence ``[t0, t1]``, run by the task
    ``rows``: engine categories first, then CPU where a subtask ran,
    scheduling wait where none did."""
    workers = {worker for _, _, worker in rows}

    def across_workers(cat: str) -> List[Interval]:
        return [i for w in workers for i in trace.worker_cover(w, cat, t0, t1)]

    seconds, remaining = _claim(t0, t1, (
        ("kernel", across_workers("kernel")),
        ("h2d", across_workers("h2d")),
        ("d2h", across_workers("d2h")),
        ("shuffle", exchanges.clipped(t0, t1)),
        ("hdfs", across_workers("hdfs"))))
    busy = _union(_clip(((a, b) for a, b, _ in rows), t0, t1))
    cpu = _intersect(remaining, busy)
    if cpu:
        seconds["cpu"] = _length(cpu)
        remaining = _subtract(remaining, _union(cpu))
    sched = _length(remaining)
    if sched > 0.0:
        seconds["sched"] = sched
    return seconds


def classify_operators(trace: ProfileTrace) -> Dict[str, Dict[str, Any]]:
    """Per-operator wall-time shares and the bottleneck class.

    Each occurrence of an operator (an ``operator`` or ``recovery`` span;
    an iterative job emits one per iteration under the same name) has its
    wall window partitioned (priority coverage over exact span occupancy)
    into kernel / h2d / d2h / shuffle / hdfs plus ``cpu`` (subtask running,
    nothing finer covering) and ``sched`` (no subtask running).  An
    occurrence owns the operator's tasks that start from its own start up
    to the next occurrence's (the first also owns any earlier ones) and
    sees the exchanges inside its window.  The entry sums its occurrences:
    ``wall_s`` is the summed wall, ``shares`` the summed seconds over it,
    ``parallelism`` the widest occurrence, ``task_latency_s`` covers every
    owned task, and ``occurrences`` counts them when there are several.
    The class is ``<dominant>_bound`` with h2d+d2h folded into ``pcie``.
    """
    from repro.obs.metrics import Histogram
    groups: Dict[str, List[PSpan]] = {}
    for op_span in trace.op_spans:
        if op_span.end - op_span.ts > 0.0:
            op = op_span.args.get("op") or op_span.name.split(":", 1)[-1]
            groups.setdefault(op, []).append(op_span)
    out: Dict[str, Dict[str, Any]] = {}
    for op, occurrences in groups.items():
        occurrences.sort(key=attrgetter("ts"))
        tasks = trace.op_tasks.get(op, [])
        exchanges = trace.op_exchanges.get(op, _NO_LANE)
        starts = [row[0] for row in tasks] if len(occurrences) > 1 else []
        cuts = [0] + [bisect_left(starts, nxt.ts)
                      for nxt in occurrences[1:]] + [len(tasks)]
        wall = 0.0
        parallelism = 0
        shares: Dict[str, float] = {}
        for i, op_span in enumerate(occurrences):
            rows = tasks[cuts[i]:cuts[i + 1]]
            wall += op_span.end - op_span.ts
            parallelism = max(parallelism, int(
                op_span.args.get("parallelism", len(rows)) or 0))
            for cat, seconds in _occurrence_seconds(
                    trace, op_span.ts, op_span.end, rows, exchanges).items():
                shares[cat] = shares.get(cat, 0.0) + seconds
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
        for seconds in trace.op_task_durations.get(op, ()):
            hist.observe(seconds)
        latency: Dict[str, float] = {}
        if hist.count:
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
            "parallelism": parallelism,
            "shares": {k: v / wall for k, v in sorted(shares.items())},
            "class": f"{dominant}_bound",
            "dominant_share": grouped[dominant] / wall,
            "task_latency_s": latency,
        }
        if len(occurrences) > 1:
            out[op]["occurrences"] = len(occurrences)
    return out


# -- utilization -------------------------------------------------------------------
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
    lo, hi = trace.window()
    makespan = max(hi - lo, TICK_S)
    out: Dict[str, Dict[str, Any]] = {}
    for name in sorted(trace.devices):
        device = trace.devices[name]
        kernel = _union(device["kernel"])
        copies = _union(device["h2d"] + device["d2h"])
        overlap = _intersect(kernel, copies)
        # The owning worker's disk activity counts as pipeline work.
        hdfs = trace.worker_lanes.get((device["worker"], "hdfs"), _NO_LANE)
        pipeline_overlap = _intersect(
            copies, _union(kernel + hdfs.intervals))
        kernel_busy = _length(kernel)
        copy_busy = _length(copies)
        h2d_bytes, d2h_bytes = device["h2d_bytes"], device["d2h_bytes"]
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
    lo, hi = trace.window()
    makespan = max(hi - lo, TICK_S)
    out: Dict[str, Dict[str, Any]] = {}
    for (worker, _slot), intervals in sorted(trace.slots.items()):
        entry = out.setdefault(worker, {"slots": 0, "slot_busy_s": 0.0})
        entry["slots"] += 1
        entry["slot_busy_s"] += _length(_union(intervals))
    for worker, entry in out.items():
        entry["occupancy_pct"] = (entry["slot_busy_s"]
                                  / (entry["slots"] * makespan))
    return out


# -- summary -----------------------------------------------------------------------
def summarize(trace: ProfileTrace,
              source: str = "tracer") -> Dict[str, Any]:
    """The full machine-readable profile summary (see SUMMARY_SCHEMA)."""
    lo, hi = trace.window()
    makespan = hi - lo
    segments = extract_critical_path(trace)
    categories = {cat: 0.0 for cat in CATEGORIES}
    for seg in segments:
        for cat, seconds in seg.categories.items():
            categories[cat] = categories.get(cat, 0.0) + seconds
    operators = classify_operators(trace)
    devices = device_utilization(trace)
    workers = worker_occupancy(trace)
    total_overlap = sum(d["copy_compute_overlap_s"] for d in devices.values())
    total_pipeline = sum(d["copy_pipeline_overlap_s"]
                         for d in devices.values())
    total_copy = sum(d["copy_busy_s"] for d in devices.values())
    return {
        "schema": SUMMARY_SCHEMA,
        "source": source,
        "jobs": list(trace.jobs),
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


def summarize_tracer(tracer: Any, source: str = "tracer") -> Dict[str, Any]:
    """Profile a live tracer (convenience wrapper)."""
    return summarize(ProfileTrace.from_tracer(tracer), source=source)


def profile_file(path: Union[str, Path]) -> Dict[str, Any]:
    """Profile a file: a Chrome trace, or an already-computed summary."""
    doc = json.loads(Path(path).read_text())
    if isinstance(doc, dict) and doc.get("schema") == SUMMARY_SCHEMA:
        return doc
    if isinstance(doc, dict) and "traceEvents" in doc:
        return summarize(ProfileTrace.from_chrome(doc), source=str(path))
    raise ValueError(f"{path}: neither a Chrome trace nor a profile summary")


# -- regression gate ---------------------------------------------------------------
@dataclass
class Delta:
    """One compared metric between a current and a baseline summary."""

    metric: str
    base: float
    current: float
    rel_change: float              # signed; positive = metric went up
    threshold: float
    regressed: bool


def default_thresholds() -> Dict[str, float]:
    """Relative thresholds per metric family (override per full name)."""
    return {
        "makespan_s": 0.10,
        "critical_path": 0.25,     # per-category seconds on the path
        "operator_wall": 0.25,     # per-operator wall seconds
        "overlap_pct": 0.20,       # copy/compute overlap may not *drop*
    }


#: Metrics whose *decrease* is a regression (higher is better).
_HIGHER_IS_BETTER = {"overlap_pct"}

#: Below this many seconds a seconds-metric is noise, never a regression.
_MIN_SECONDS = 1e-6


def _threshold_for(metric: str, family: str,
                   thresholds: Dict[str, float]) -> float:
    if metric in thresholds:
        return thresholds[metric]
    return thresholds.get(family, 0.25)


def compare_summaries(current: Dict[str, Any], baseline: Dict[str, Any],
                      thresholds: Optional[Dict[str, float]] = None
                      ) -> List[Delta]:
    """Diff two summaries; a Delta per compared metric, regressions flagged.

    A metric regresses when its relative change exceeds the configured
    threshold in the bad direction (up for times, down for overlap).
    Metrics below the noise floor or absent from either side are skipped.
    """
    thr = default_thresholds()
    thr.update(thresholds or {})
    deltas: List[Delta] = []

    def scalar(metric: str, family: str, base: Any, cur: Any,
               floor: float = _MIN_SECONDS) -> None:
        if not isinstance(base, (int, float)) or \
                not isinstance(cur, (int, float)):
            return
        if max(abs(base), abs(cur)) < floor:
            return
        rel = (cur - base) / max(abs(base), floor)
        t = _threshold_for(metric, family, thr)
        if family in _HIGHER_IS_BETTER:
            regressed = rel < -t
        else:
            regressed = rel > t
        deltas.append(Delta(metric, float(base), float(cur), rel, t,
                            regressed))

    scalar("makespan_s", "makespan_s",
           baseline.get("makespan_s"), current.get("makespan_s"))
    base_cats = (baseline.get("critical_path") or {}).get("categories", {})
    cur_cats = (current.get("critical_path") or {}).get("categories", {})
    for cat in CATEGORIES:
        scalar(f"critical_path.{cat}", "critical_path",
               base_cats.get(cat, 0.0), cur_cats.get(cat, 0.0))
    base_ops = baseline.get("operators") or {}
    cur_ops = current.get("operators") or {}
    for op in sorted(set(base_ops) | set(cur_ops)):
        if op in base_ops and op in cur_ops:
            scalar(f"operator.{op}.wall_s", "operator_wall",
                   base_ops[op].get("wall_s"), cur_ops[op].get("wall_s"))
            continue
        # An operator present in only one summary is a plan change, not a
        # noisy scalar: a new operator — however hot — must not pass the
        # gate unflagged, and a vanished one is worth a line in the report.
        entry = cur_ops.get(op) if op in cur_ops else base_ops.get(op)
        wall = (entry or {}).get("wall_s")
        if not isinstance(wall, (int, float)) or abs(wall) < _MIN_SECONDS:
            continue
        t = _threshold_for(f"operator.{op}.wall_s", "operator_wall", thr)
        if op in cur_ops:
            deltas.append(Delta(f"operator.{op}.wall_s", 0.0, float(wall),
                                math.inf, t, True))
        else:
            deltas.append(Delta(f"operator.{op}.wall_s", float(wall), 0.0,
                                -1.0, t, False))
    base_tot = baseline.get("totals") or {}
    cur_tot = current.get("totals") or {}
    scalar("totals.copy_compute_overlap_pct", "overlap_pct",
           base_tot.get("copy_compute_overlap_pct"),
           cur_tot.get("copy_compute_overlap_pct"), floor=1e-3)
    scalar("totals.copy_pipeline_overlap_pct", "overlap_pct",
           base_tot.get("copy_pipeline_overlap_pct"),
           cur_tot.get("copy_pipeline_overlap_pct"), floor=1e-3)
    return deltas


# -- text rendering ----------------------------------------------------------------
def _pct(x: float) -> str:
    return f"{x:6.1%}"


def render_text(summary: Dict[str, Any]) -> str:
    """Human-readable profile report."""
    lines = [f"profile: makespan {summary['makespan_s']:.3f} s over "
             f"{len(summary.get('jobs', []))} job(s), "
             f"{summary.get('span_count', 0)} spans"]
    cp = summary.get("critical_path", {})
    cats = cp.get("categories", {})
    total = max(sum(cats.values()), TICK_S)
    lines.append(f"critical path ({cp.get('length_s', 0.0):.3f} s, "
                 f"{len(cp.get('segments', []))} segments):")
    for cat in CATEGORIES:
        seconds = cats.get(cat, 0.0)
        if seconds > 0.0:
            lines.append(f"  {cat:<8} {seconds:10.3f} s "
                         f"{_pct(seconds / total)}")
    operators = summary.get("operators", {})
    if operators:
        width = min(max(len(op) for op in operators), 44)
        lines.append("operator bottlenecks:")
        for op in sorted(operators,
                         key=lambda o: -operators[o]["wall_s"]):
            entry = operators[op]
            line = (
                f"  {op[:width]:<{width}} {entry['wall_s']:9.3f} s  "
                f"{entry['class']:<13} "
                f"({_pct(entry['dominant_share']).strip()} dominant)")
            latency = entry.get("task_latency_s") or {}
            if latency:
                line += (f"  p50 {latency['p50']:7.3f} "
                         f"p95 {latency['p95']:7.3f} "
                         f"p99 {latency['p99']:7.3f}")
            lines.append(line)
    devices = summary.get("devices", {})
    if devices:
        lines.append("device utilization "
                     "(busy% of makespan, overlap% of copy time):")
        for name in sorted(devices):
            d = devices[name]
            lines.append(
                f"  {name:<22} kernel {_pct(d['kernel_busy_pct'])}  "
                f"copy {_pct(d['copy_busy_pct'])}  "
                f"overlap {_pct(d['copy_compute_overlap_pct'])}  "
                f"pipeline {_pct(d.get('copy_pipeline_overlap_pct', 0.0))}  "
                f"pcie {d['pcie_bytes_per_s'] / 1e9:6.2f} GB/s")
    workers = summary.get("workers", {})
    if workers:
        lines.append("worker slot occupancy:")
        for name in sorted(workers):
            w = workers[name]
            lines.append(f"  {name:<22} {w['slots']} slots  "
                         f"busy {_pct(w['occupancy_pct'])}")
    return "\n".join(lines)


def render_comparison(deltas: List[Delta]) -> str:
    """Human-readable regression-gate report."""
    if not deltas:
        return "baseline comparison: no comparable metrics"
    lines = ["baseline comparison:"]
    for d in sorted(deltas, key=lambda d: (not d.regressed, d.metric)):
        marker = "REGRESSION" if d.regressed else "ok"
        lines.append(f"  [{marker:<10}] {d.metric:<42} "
                     f"{d.base:12.6g} -> {d.current:12.6g} "
                     f"({d.rel_change:+.1%}, thr {d.threshold:.0%})")
    n = sum(d.regressed for d in deltas)
    lines.append(f"  {n} regression(s) out of {len(deltas)} metrics"
                 if n else
                 f"  all {len(deltas)} metrics within thresholds")
    return "\n".join(lines)
