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
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence

import numpy as np

from paper import Sweep, approx, record_bench
from repro.cli import WORKLOADS
from repro.common import Environment
from repro.common.units import MB, MiB
from repro.core import GFlinkCluster, GFlinkSession
from repro.core.channels import CommCosts, CommMode, CUDAWrapper
from repro.core.gpumanager import GPUManagerConfig
from repro.core.hbuffer import Block, HBuffer
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.gpu import CUDARuntime, GPUDevice, KernelRegistry, TESLA_C2050
from repro.obs.export import (
    collect_cluster,
    write_chrome_trace,
    write_metrics,
)
from repro.workloads import SpMVWorkload, table1_sizes
from repro.workloads.base import WorkloadResult

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

    def emit(self, benchmark, name: str) -> None:
        """Print the table and record it under ``name`` (the claim's id)."""
        print(self.render())
        table = [
            {"label": r.label, "cpu_s": round(r.cpu_s, 3),
             "gpu_s": round(r.gpu_s, 3),
             "speedup": round(r.speedup, 3)}
            for r in self.rows
        ]
        benchmark.extra_info["table"] = table
        record_bench(name, {"rows": table})


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


def claim_workload(claim: Sweep, nominal: float):
    """The workload a headline row describes, at one nominal input size."""
    cls, _, size_param = WORKLOADS[claim.workload]
    kwargs = {size_param: nominal,
              size_param.replace("nominal", "real"): claim.real}
    if claim.iterations is not None:
        kwargs["iterations"] = claim.iterations
    return cls(**kwargs)


def sweep_claim(claim: Sweep, sizes: Optional[Sequence[object]] = None,
                config: Optional[ClusterConfig] = None) -> FigureReport:
    """A headline row's sweep on the paper's cluster — over all five
    Table-1 sizes of its family unless ``sizes`` narrows it."""
    label = WORKLOADS[claim.workload][0].__name__.removesuffix("Workload")
    return sweep(lambda size: claim_workload(claim, size.nominal_elements),
                 sizes or table1_sizes(claim.family),
                 config or paper_cluster_config(),
                 f"Fig {claim.id[3:]}: {label} on the cluster "
                 f"(paper: {approx(claim)})")


def mid_size(rows: Sequence[object]):
    """The middle entry: the input size the paper's one factor is read at."""
    return rows[len(rows) // 2]


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


def h2d_bandwidth(nbytes: int, path: str) -> float:
    """Table 2: MB/s of one host-to-device transfer of ``nbytes`` through
    the GFlink transfer channel (``"gflink"``: off-heap direct buffer via
    CUDAWrapper / CUDAStub) or straight from a C library (``"native"``)."""
    env = Environment()
    device = GPUDevice(env, TESLA_C2050)
    runtime = CUDARuntime(env, [device], KernelRegistry())
    wrapper = CUDAWrapper(env, runtime, CommCosts())
    h = HBuffer(np.zeros(max(nbytes // 8, 1)), element_nbytes=8,
                off_heap=True, pinned=True)
    block = Block(0, h.elements, nbytes / 8, nbytes)

    def proc():
        dst = yield from runtime.malloc(device, nbytes)
        t0 = env.now
        if path == "gflink":
            yield from wrapper.transfer_h2d_inline(device, dst, block, h,
                                                   CommMode.GFLINK)
        else:
            host = wrapper.host_view(block, h, CommMode.GFLINK)
            yield from runtime.memcpy_h2d(device, dst, host)
        return env.now - t0

    seconds = env.run(until=env.process(proc()))
    return nbytes / seconds / MB


def gc_policy_counts(cache_policy: str):
    """Fig. 8a companion: (hits, evictions) of a 4-iteration SpMV whose
    ~10 MiB matrix meets a 4 MiB cache region under ``cache_policy``."""
    gpu_config = GPUManagerConfig(
        cache_bytes_per_device=int(4 * MiB),
        cache_policy=cache_policy, block_nbytes=1 * MiB)
    cluster = GFlinkCluster(paper_cluster_config(n_workers=1),
                            gpu_config=gpu_config)
    session = GFlinkSession(cluster)
    SpMVWorkload(nominal_elements=80_000, real_elements=80_000,
                 iterations=4).run(session, "gpu")
    stats = [gm.gmm.stats(session.app_id) for gm in cluster.gpu_managers()]
    return (sum(h for s in stats for (h, m, e) in s.values()),
            sum(e for s in stats for (h, m, e) in s.values()))
