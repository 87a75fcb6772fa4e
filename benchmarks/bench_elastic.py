"""Elastic-membership benchmark: churn bit-identity, recovery overhead,
time-to-steady-state, and autoscaler vs fixed capacity.

Three experiments, recorded as ``elastic_churn_matrix`` and
``elastic_autoscaler_vs_fixed``:

* **Churn matrix** — WordCount, KMeans and PageRank each run under a
  seeded membership schedule (two joins, one graceful drain, one abrupt
  leave, all mid-job) in cpu and gpu mode.  Every cell must
  produce results bit-identical to the static-membership run: elasticity
  changes placement and timing only, never the answer.
* **Per-event recovery** — the same runs report, per membership event, the
  time back to steady state (recovery latency from the cluster's
  recovery-action log) plus the p50/p95/p99 across events and the makespan
  overhead vs the static run.
* **Autoscaler** — a WordCount on 2 workers with the autoscaler
  allowed to grow to 4 is compared against fixed 2-worker and fixed
  4-worker runs.  The autoscaled run must return the identical result and
  never be slower than the fixed run at its *starting* size; the report
  shows how much of the fixed-at-peak run's advantage it recovers.
"""

from conftest import run_once
from paper import record_bench
from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.flink.autoscaler import Autoscaler, AutoscalerPolicy
from repro.flink.chaos import ChurnSchedule, values_equal
from repro.workloads import KMeansWorkload, PageRankWorkload, \
    WordCountWorkload


N_WORKERS = 3
WORKLOADS = {
    "wordcount": lambda: WordCountWorkload(real_elements=20_000),
    "kmeans": lambda: KMeansWorkload(real_elements=6_000, iterations=3),
    "pagerank": lambda: PageRankWorkload(real_pages=1_200, iterations=3),
}


def _config() -> ClusterConfig:
    return ClusterConfig(n_workers=N_WORKERS, cpu=CPUSpec(cores=2),
                         gpus_per_worker=("c2050",),
                         flink=FlinkConfig(retry_backoff_base_s=0.05))


def _churn_schedule(span_s: float) -> ChurnSchedule:
    """Two joins, one drain, one abrupt leave, all inside the job window."""
    return (ChurnSchedule()
            .join_worker(at=span_s * 0.10)
            .join_worker(at=span_s * 0.25)
            .drain_worker("worker2", at=span_s * 0.45)
            .leave_worker("elastic0", at=span_s * 0.65))


def _run_cell(name: str, mode: str) -> dict:
    static = WORKLOADS[name]().run(
        GFlinkSession(GFlinkCluster(_config())), mode)
    span = static.job_metrics[0].started_at + static.total_seconds
    cluster = GFlinkCluster(_config())
    engine = cluster.install_chaos(_churn_schedule(span))
    result = WORKLOADS[name]().run(GFlinkSession(cluster), mode)
    summary = engine.summary()
    return {
        "workload": name, "mode": mode,
        "identical": values_equal(static.value, result.value),
        "events_applied": summary["events_applied"],
        "by_kind": summary["by_kind"],
        "static_s": round(static.total_seconds, 4),
        "churn_s": round(result.total_seconds, 4),
        "overhead": round(
            result.total_seconds / static.total_seconds - 1.0, 4),
        "recovery_latency_s": {
            k: round(v, 4)
            for k, v in summary["recovery_latency_s"].items()},
        "per_event": [
            {"kind": e["kind"], "worker": e["worker"],
             "at": round(e["at"], 2),
             "time_to_steady_s": round(e["recovery_latency_s"], 4)}
            for e in summary["per_event"]],
    }


def test_churn_bit_identity_matrix(benchmark):
    def measure():
        return [_run_cell(name, mode)
                for name in sorted(WORKLOADS)
                for mode in ("cpu", "gpu")]

    cells = run_once(benchmark, measure)

    print("\n== Elastic churn: 2 joins + 1 drain + 1 leave mid-job ==")
    print(f"{'workload':>9} {'mode':>4} {'same':>5} "
          f"{'static':>9} {'churn':>9} {'overhead':>9} "
          f"{'recov p95':>9}")
    for c in cells:
        p95 = c["recovery_latency_s"].get("p95", 0.0)
        print(f"{c['workload']:>9} {c['mode']:>4} "
              f"{'yes' if c['identical'] else 'NO':>5} "
              f"{c['static_s']:>8.3f}s {c['churn_s']:>8.3f}s "
              f"{c['overhead']:>+8.1%} {p95:>8.3f}s")

    summary = {f"{c['workload']}-{c['mode']}": c for c in cells}
    benchmark.extra_info["table"] = summary
    record_bench("elastic_churn_matrix", summary)

    for c in cells:
        # Bit-identical results in every cell, with all 4 events applied.
        assert c["identical"], c
        assert c["events_applied"] == 4, c
        # Per-event recovery is reported for every membership event.
        assert len(c["per_event"]) == 4, c


def _autoscale_workload():
    return WordCountWorkload(real_elements=20_000)


def _fixed_run(n_workers: int):
    config = ClusterConfig(n_workers=n_workers, cpu=CPUSpec(cores=2),
                           gpus_per_worker=("c2050",))
    return _autoscale_workload().run(
        GFlinkSession(GFlinkCluster(config)), "gpu")


def test_autoscaler_vs_fixed_capacity(benchmark):
    def measure():
        small = _fixed_run(2)
        peak = _fixed_run(4)
        config = ClusterConfig(n_workers=2, cpu=CPUSpec(cores=2),
                               gpus_per_worker=("c2050",))
        cluster = GFlinkCluster(config)
        scaler = Autoscaler(cluster, AutoscalerPolicy(
            interval_s=1.0, cooldown_s=2.0, max_workers=4,
            slot_pressure_high=1.05))
        scaler.start()
        auto = _autoscale_workload().run(GFlinkSession(cluster), "gpu")
        scaler.stop()
        return small, peak, auto, scaler

    small, peak, auto, scaler = run_once(benchmark, measure)
    added = [d for d in scaler.decisions if d.action == "add_worker"]
    final_size = len(scaler.cluster.member_names())

    print("\n== Autoscaler (2 -> up to 4 workers) vs fixed capacity ==")
    print(f"  fixed 2 workers   {small.total_seconds:9.3f} s")
    print(f"  fixed 4 workers   {peak.total_seconds:9.3f} s")
    print(f"  autoscaled        {auto.total_seconds:9.3f} s "
          f"({len(added)} adds, final size {final_size}, "
          f"{len(scaler.decisions)} decisions)")
    for d in scaler.decisions:
        print(f"    {d.time:7.2f}s {d.signal:<11} -> {d.action} {d.detail}")

    summary = {
        "fixed_small_s": round(small.total_seconds, 4),
        "fixed_peak_s": round(peak.total_seconds, 4),
        "autoscaled_s": round(auto.total_seconds, 4),
        "identical": values_equal(small.value, auto.value),
        "workers_added": len(added),
        "final_size": final_size,
        "vs_fixed_small": round(
            auto.total_seconds / small.total_seconds, 4),
        "vs_fixed_peak": round(
            auto.total_seconds / peak.total_seconds, 4),
        "decisions": [
            {"time": round(d.time, 2), "signal": d.signal,
             "action": d.action} for d in scaler.decisions],
    }
    benchmark.extra_info["table"] = summary
    record_bench("elastic_autoscaler_vs_fixed", summary)

    # Elastic capacity changes placement/timing only, never the answer.
    assert summary["identical"]
    # The autoscaled run is never slower than the fixed run at its
    # starting size (adding capacity can only help or break even).
    assert auto.total_seconds <= small.total_seconds * (1 + 1e-9), summary
