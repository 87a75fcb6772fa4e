"""Shared benchmark harness.

Each ``bench_*.py`` module regenerates one table or figure of the paper.
The *measurement* is simulated cluster time (the quantity the paper plots);
pytest-benchmark additionally records the host-side cost of running the
simulation.  Every bench

* prints the paper-style rows/series (visible with ``pytest -s`` and stored
  in ``benchmark.extra_info`` for the JSON report), and
* asserts the qualitative shape the paper reports (who wins, by roughly what
  factor, where the crossovers are), so a regression in the model fails CI.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.obs.export import (
    collect_cluster,
    write_chrome_trace,
    write_metrics,
)
from repro.workloads.base import WorkloadResult

#: Consolidated results of one benchmark run of this PR's suite: each bench
#: records its workload's simulated seconds and speedup here, so CI (and a
#: reviewer) reads one file instead of scraping pytest-benchmark JSON.
BENCH_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR1.json"

#: Consolidated GProfiler briefs (critical path, bottleneck classes,
#: copy/compute overlap) from the profiling bench suite.
BENCH_PROFILE_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR5.json"


def record_bench(name: str, payload: dict,
                 path: Optional[Path] = None) -> None:
    """Merge one bench's summary into a consolidated results file.

    Load-merge-write keeps entries from the other benches of the same run;
    a fresh run simply overwrites stale entries name by name.  ``path``
    defaults to this PR suite's :data:`BENCH_RESULTS_PATH`; later suites
    (e.g. ``bench_resilience``) pass their own consolidated file.
    """
    path = path or BENCH_RESULTS_PATH
    results: Dict[str, dict] = {}
    if path.exists():
        try:
            results = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            results = {}
    results[name] = payload
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

#: The paper's testbed: 10 slaves, each an i5-4590 (4 cores @3.3 GHz) with
#: two Tesla C2050 GPUs (§6.1, §6.5).
PAPER_GPUS = ("c2050", "c2050")


def paper_cluster_config(n_workers: int = 10,
                         gpus: Sequence[str] = PAPER_GPUS) -> ClusterConfig:
    """The evaluation cluster of §6.5 (scaled by ``n_workers``).

    Benchmarks run with tracing on (tests keep the default off): it never
    touches the simulated clock, and setting ``REPRO_BENCH_TRACE_DIR`` makes
    every :func:`run_workload` drop its Chrome trace + metrics there.
    """
    return ClusterConfig(n_workers=n_workers, cpu=CPUSpec(),
                         gpus_per_worker=tuple(gpus),
                         flink=FlinkConfig(enable_tracing=True))


def fresh_session(config: ClusterConfig) -> GFlinkSession:
    """A new cluster + session (no state shared between experiment points)."""
    return GFlinkSession(GFlinkCluster(config))


@dataclass
class Row:
    """One line of a paper-style results table."""

    label: str
    cpu_s: float
    gpu_s: float

    @property
    def speedup(self) -> float:
        return self.cpu_s / self.gpu_s if self.gpu_s > 0 else float("inf")


@dataclass
class FigureReport:
    """Collected rows for one table/figure, with pretty printing."""

    title: str
    rows: List[Row] = field(default_factory=list)

    def add(self, label: str, cpu_s: float, gpu_s: float) -> Row:
        row = Row(label, cpu_s, gpu_s)
        self.rows.append(row)
        return row

    def speedups(self) -> List[float]:
        return [r.speedup for r in self.rows]

    def render(self) -> str:
        width = max((len(r.label) for r in self.rows), default=10)
        lines = [f"\n== {self.title} ==",
                 f"{'input':<{width}}  {'Flink (CPU)':>12}  "
                 f"{'GFlink (GPU)':>12}  {'speedup':>8}"]
        for r in self.rows:
            lines.append(f"{r.label:<{width}}  {r.cpu_s:>10.2f} s  "
                         f"{r.gpu_s:>10.2f} s  {r.speedup:>7.2f}x")
        return "\n".join(lines)

    def emit(self, benchmark=None) -> None:
        print(self.render())
        table = [
            {"label": r.label, "cpu_s": round(r.cpu_s, 3),
             "gpu_s": round(r.gpu_s, 3),
             "speedup": round(r.speedup, 3)}
            for r in self.rows
        ]
        if benchmark is not None:
            benchmark.extra_info["table"] = table
        record_bench(self.title, {"rows": table})


def profile_brief(session: GFlinkSession) -> Optional[dict]:
    """A compact GProfiler digest of one traced run (None when untraced).

    The full summary (:func:`repro.obs.profile.summarize_tracer`) is large;
    benches attach just the headline numbers to each record: makespan,
    critical-path split, each operator's bottleneck class, and the
    cluster-wide copy/compute overlap.
    """
    cluster = session.cluster
    if not cluster.obs.tracer.enabled:
        return None
    from repro.obs.profile import summarize_tracer
    summary = summarize_tracer(cluster.obs.tracer)
    cats = summary["critical_path"]["categories"]
    return {
        "makespan_s": round(summary["makespan_s"], 4),
        "critical_path_s": round(summary["critical_path"]["length_s"], 4),
        "critical_path_categories": {
            k: round(v, 4) for k, v in cats.items() if v > 0},
        "bottlenecks": {
            op: entry["class"]
            for op, entry in summary["operators"].items()},
        "copy_compute_overlap_pct": round(
            summary["totals"]["copy_compute_overlap_pct"], 4),
    }


_trace_seq = itertools.count()


def _maybe_dump_trace(session: GFlinkSession, label: str) -> None:
    """Drop this run's trace + metrics into ``$REPRO_BENCH_TRACE_DIR``."""
    out_dir = os.environ.get("REPRO_BENCH_TRACE_DIR")
    cluster = session.cluster
    if not out_dir or not cluster.obs.tracer.enabled:
        return
    collect_cluster(cluster.obs.registry, cluster)
    base = Path(out_dir) / f"{next(_trace_seq):03d}-{label}"
    write_chrome_trace(cluster.obs.tracer,
                       base.with_suffix(".trace.json"))
    write_metrics(cluster.obs.registry, base.with_suffix(".metrics.json"))


def run_workload(workload_factory: Callable[[], object], mode: str,
                 config: ClusterConfig,
                 session: Optional[GFlinkSession] = None) -> WorkloadResult:
    """Run one workload in one mode on a fresh (or given) cluster."""
    session = session or fresh_session(config)
    workload = workload_factory()
    result = workload.run(session, mode)
    result.profile = profile_brief(session)
    _maybe_dump_trace(session, f"{type(workload).__name__}-{mode}")
    return result


def sweep(workload_factory: Callable[[object], object],
          sizes: Sequence[object], config: ClusterConfig,
          title: str) -> FigureReport:
    """CPU-vs-GPU sweep over Table 1 sizes → one figure report."""
    report = FigureReport(title)
    for size in sizes:
        cpu = run_workload(lambda: workload_factory(size), "cpu", config)
        gpu = run_workload(lambda: workload_factory(size), "gpu", config)
        report.add(size.label, cpu.total_seconds, gpu.total_seconds)
    return report


def assert_speedups_in_band(report: FigureReport, low: float, high: float,
                            paper_value: float) -> None:
    """The sweep's speedups must bracket the paper's reported factor."""
    speedups = report.speedups()
    assert all(low <= s <= high for s in speedups), (
        f"{report.title}: speedups {speedups} outside [{low}, {high}] "
        f"(paper reports ~{paper_value}x)")


def assert_mid_size_speedup(report: FigureReport, paper_value: float,
                            rel: float = 0.30) -> None:
    """The middle input size must land within ``rel`` of the paper's factor.

    (The paper quotes a single per-benchmark number; its sweeps also fan out
    around it, smallest inputs being overhead-bound per Observation 3.)
    """
    mid = report.rows[len(report.rows) // 2].speedup
    assert abs(mid - paper_value) / paper_value <= rel, (
        f"{report.title}: mid-size speedup {mid:.2f}x vs paper "
        f"~{paper_value}x (tolerance {rel:.0%})")


def assert_speedup_grows_with_size(report: FigureReport,
                                   tolerance: float = 0.98) -> None:
    """Observation 3: larger inputs amortize fixed overheads."""
    speedups = report.speedups()
    for smaller, larger in zip(speedups, speedups[1:]):
        assert larger >= smaller * tolerance, (
            f"{report.title}: speedup fell from {smaller:.2f} to "
            f"{larger:.2f} as input grew")
    assert speedups[-1] > speedups[0], (
        f"{report.title}: speedup did not grow with input size")
