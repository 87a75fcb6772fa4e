"""Child-process side of the benchmark: runs jobs of ONE workload.

``run.py`` starts this file once per (workload, phase) with ``PYTHONPATH``
pointing at ``src/`` and reads one JSON document from its stdout.  Two phases:

``timed``
    one untimed warm-up job, the timed jobs (closed loop, one after the
    other, each on a fresh cluster), a ``ru_maxrss`` sample, and only then
    the check phase — so the reference CPU/GPU runs cannot inflate the peak
    RSS that is reported for the workload's own configuration.
``profile``
    one job under ``cProfile``, folded by package into self time and calls.

Every name imported from ``repro`` is listed in README.md; nothing private
is touched.
"""

from __future__ import annotations

import argparse
import cProfile
import heapq
import json
import pstats
import resource
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.flink.chaos import values_equal
from repro.obs.export import collect_cluster, write_chrome_trace
from repro.obs.monitor import validate_monitor_summary
from repro.obs.profile import summarize_tracer, validate_profile_summary
from repro.workloads import LinearRegressionWorkload, PageRankWorkload

#: The paper's testbed (§6.1): 10 slaves x 2 Tesla C2050 — what
#: ``repro run`` builds by default.
N_WORKERS = 10
GPUS = ("c2050", "c2050")
#: ``repro run``'s default in-memory sample size.
REAL = 12_000

#: application -> (constructor, Table-1 mid-size nominal input, the paper's
#: overall speed-up the simulated one is held against).
APPS = {
    "pagerank": (lambda **kw: PageRankWorkload(
        nominal_pages=15e6, real_pages=REAL, **kw), 3.5),
    "linreg": (lambda **kw: LinearRegressionWorkload(
        nominal_elements=210e6, real_elements=REAL, **kw), 9.2),
}


@dataclass(frozen=True)
class Spec:
    """One benchmark workload: an application in one configuration."""

    app: str
    mode: str
    vectorized: bool = False
    observed: bool = False
    jobs: int = 1            # timed jobs when no --seconds budget is given


WORKLOADS = {
    "shuffle_rows": Spec("pagerank", "cpu", jobs=30),
    "shuffle_columnar": Spec("pagerank", "cpu", vectorized=True, jobs=12),
    "gpu_iterative": Spec("linreg", "gpu", jobs=24),
    "observed": Spec("pagerank", "gpu", observed=True, jobs=20),
}

#: Scratch directory: the simulated-clock trace ``observed`` exports.
OUT = Path(__file__).resolve().parent / "out"

#: With a --seconds budget, still run this many jobs so a median exists.
MIN_TIMED_JOBS = 3

#: Calibration samples taken before every timed job.
CAL_SAMPLES = 2

now = time.perf_counter


def calibrate(n: int = 20_000) -> float:
    """Seconds this host takes for a fixed loop of generator resumes, heap
    pushes/pops and dict/float work — the simulator's instruction mix, but
    stdlib only, so no change to ``repro`` can move it.

    This box slows down by 10-30% for minutes at a time; the loop slows
    with it, which lets ``run.py`` state job times at a reference speed.
    """
    heap, table, seq = [], {}, 0

    def resumed():
        x = 0.0
        while True:
            x = (yield x) * 0.5 + 1.0

    gen = resumed()
    next(gen)
    t0 = now()
    for i in range(n):
        seq += 1
        heapq.heappush(heap, (gen.send(float(i % 97)), seq))
        if len(heap) > 64:
            when, order = heapq.heappop(heap)
            table[order & 1023] = when
    return now() - t0


def run_job(spec: Spec, seed: int, iterations=None) -> dict:
    """One job on a fresh cluster; returns its phase stamps, result, counts.

    Set-up is everything ``repro run`` does before ``Workload.run``: cluster
    construction, input generation, HDFS load, kernel registration.
    """
    marks = [("start", now())]

    def mark(name):
        marks.append((name, now()))

    cluster = GFlinkCluster(ClusterConfig(
        n_workers=N_WORKERS, cpu=CPUSpec(), gpus_per_worker=GPUS,
        flink=FlinkConfig(enable_tracing=spec.observed,
                          enable_monitoring=spec.observed)))
    mark("cluster_build")
    kwargs = {"seed": seed, "vectorized": spec.vectorized}
    if iterations is not None:
        kwargs["iterations"] = iterations
    workload = APPS[spec.app][0](**kwargs)

    # prepare() = generate chunks, then cluster.load_hdfs_file(); stamping
    # the boundary from outside splits the two without a private call.
    load = cluster.load_hdfs_file

    def stamped_load(path, chunks):
        mark("input_gen")
        load(path, chunks)

    cluster.load_hdfs_file = stamped_load
    workload.prepare(cluster)
    del cluster.load_hdfs_file
    if spec.mode == "gpu":
        workload.register_kernels(cluster.registry)
    mark("hdfs_load")

    result = workload.run(GFlinkSession(cluster), spec.mode)
    mark("run")
    if spec.observed:
        obs = cluster.obs
        collect_cluster(obs.registry, cluster)
        obs.monitor.finalize()
        monitor_summary = obs.monitor.summary()
        mark("obs_collect")
        write_chrome_trace(obs.tracer, OUT / "sim_trace.json")
        mark("obs_export")
        errors = validate_monitor_summary(monitor_summary) \
            + validate_profile_summary(summarize_tracer(obs.tracer))
        if errors:
            raise RuntimeError(f"invalid observability output: {errors[:3]}")
        mark("obs_summarize")
    setup_end = dict(marks)["hdfs_load"]
    devices = [d for gm in cluster.gpu_managers() for d in gm.devices]
    cache = [s for gm in cluster.gpu_managers()
             for s in gm.gmm.cache_stats().values()]
    jobs = result.job_metrics
    return {
        "marks": marks,
        "setup_s": setup_end - marks[0][1],
        "job_wall_s": marks[-1][1] - setup_end,
        "value": result.value,
        # Everything below is simulated, hence exactly repeatable.
        "sim": {
            "sim_makespan_s": result.total_seconds,
            "iteration_seconds": list(result.iteration_seconds),
            "flink.subtasks": sum(m.subtasks for m in jobs),
            "flink.retries": sum(m.retries for m in jobs),
            "flink.pipeline_backpressure_stalls":
                sum(m.pipeline_backpressure_stalls for m in jobs),
            "flink.shuffle.bytes": sum(m.shuffle_bytes for m in jobs),
            "flink.shuffle.zero_copy_bytes":
                sum(m.shuffle_zero_copy_bytes for m in jobs),
            "hdfs.read_bytes": cluster.hdfs.total_bytes_read(),
            "hdfs.write_bytes": cluster.hdfs.total_bytes_written(),
            "gpu.kernels_launched": sum(d.kernels_launched for d in devices),
            "gpu.pcie_bytes": cluster.total_pcie_bytes(),
            "gpu.kernel_sim_s": cluster.total_kernel_seconds(),
            "core.cache_hits": sum(s.hits for s in cache),
            "core.cache_misses": sum(s.misses for s in cache),
            "obs.trace_events": len(cluster.obs.tracer),
        },
    }


def check(spec: Spec, seed: int, iterations, reference: dict) -> dict:
    """The paper's claim that offload does not change the answer.

    Runs the application in iterator-CPU and plain GPU mode (``reference``,
    the workload's own configuration, stands in when it is one of the two).
    Within a mode the value must be bit-identical (``values_equal``): the
    vectorized path and observability may not move a single digit.  Across
    modes the partitioning differs (40 slots vs 20 GPUs), so partial sums
    associate differently and the last digits move (measured: 1.6e-15
    relative); there the bar is float64 round-off, fixed here beforehand.
    The two simulated makespans give the speed-up held against the paper's.
    """
    results = {}
    for mode in ("cpu", "gpu"):
        plain = replace(spec, mode=mode, vectorized=False, observed=False)
        results[mode] = reference if plain == spec \
            else run_job(plain, seed, iterations)
    ok = values_equal(reference["value"], results[spec.mode]["value"]) \
        and bool(np.allclose(np.asarray(results["cpu"]["value"], float),
                             np.asarray(results["gpu"]["value"], float),
                             rtol=1e-9, atol=1e-12))
    if spec.observed:
        # Observability must never move the simulated clock.
        ok = ok and (results["gpu"]["sim"]["iteration_seconds"]
                     == reference["sim"]["iteration_seconds"])
    speedup = (results["cpu"]["sim"]["sim_makespan_s"]
               / results["gpu"]["sim"]["sim_makespan_s"])
    paper = APPS[spec.app][1]
    return {"ok": ok, "speedup": speedup, "paper_speedup": paper,
            "paper_speedup_rel_err": abs(speedup - paper) / paper}


def timed_phase(spec, seed, iterations, jobs, seconds) -> dict:
    reference = run_job(spec, seed, iterations)   # warm-up
    records, failed, calibration = [], 0, []
    deadline = None if seconds is None else now() + seconds

    def more() -> bool:
        if deadline is None:
            return len(records) < jobs
        return now() < deadline or len(records) < MIN_TIMED_JOBS

    while more():
        calibration += [calibrate() for _ in range(CAL_SAMPLES)]
        try:
            rec = run_job(spec, seed, iterations)
        except Exception as exc:  # a raising job is a failed job, not a crash
            print(f"job raised: {exc!r}", file=sys.stderr)
            failed += 1
            records.append(None)
            continue
        if not (rec["sim"] == reference["sim"]
                and values_equal(rec["value"], reference["value"])):
            failed += 1
        records.append(rec)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = [r for r in records if r is not None]
    return {
        "attempted": len(records), "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "calibration_s": calibration,
        "setup_s": [r["setup_s"] for r in done],
        "job_wall_s": [r["job_wall_s"] for r in done],
        "marks": [r["marks"] for r in done],
        "sim": reference["sim"],
        "check": check(spec, seed, iterations, reference),
    }


#: Buckets the profile folds into; their self times sum to the profiled
#: job's wall time.  ``common`` is split by module because the kernel, the
#: resources and the network model are separate layers.
BUCKETS = ("common.simclock", "common.resources", "common.network", "hdfs",
           "flink", "core", "gpu", "obs", "workloads", "numpy", "builtins",
           "other")


def bucket_of(filename: str, funcname: str) -> str:
    if filename == "~":      # C function: cProfile records no file for it
        return "numpy" if "numpy" in funcname else "builtins"
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        parts = path.rsplit("/repro/", 1)[1].split("/")
        name = parts[0] if parts[0] != "common" \
            else "common." + parts[-1].removesuffix(".py")
        return name if name in BUCKETS else "other"
    return "numpy" if "/numpy/" in path else "other"


def profile_phase(spec, seed, iterations) -> dict:
    profiler = cProfile.Profile()
    t0 = now()
    profiler.enable()
    rec = run_job(spec, seed, iterations)
    profiler.disable()
    wall = now() - t0
    self_s = dict.fromkeys(BUCKETS, 0.0)
    calls = dict.fromkeys(BUCKETS, 0)
    steps = 0
    for (filename, _line, funcname), (_cc, ncalls, tottime, _ct, _callers) \
            in pstats.Stats(profiler).stats.items():
        bucket = bucket_of(filename, funcname)
        self_s[bucket] += tottime
        calls[bucket] += ncalls
        if funcname == "step" and bucket == "common.simclock":
            steps = ncalls
    return {"wall_s": wall, "self_s": self_s, "calls": calls,
            "steps": steps, "sim": rec["sim"], "marks": rec["marks"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=("timed", "profile"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--iterations", type=int, default=None)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    if args.phase == "timed":
        doc = timed_phase(spec, args.seed, args.iterations,
                          args.jobs or spec.jobs, args.seconds)
    else:
        doc = profile_phase(spec, args.seed, args.iterations)
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
