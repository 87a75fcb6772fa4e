"""Resilience benchmark: failure rate vs. makespan overhead.

An iterative GPU workload runs under random chaos schedules of increasing
intensity (Poisson GPU faults + worker kills drawn from one seed), once
with GPU→CPU fallback enabled and once without.  For every point that
completes, the result must be *identical* to the fault-free run — lineage
recovery and CPU fallback are exact, so faults may only cost time, never
correctness.  Recorded as ``resilience_failure_rate_sweep``.

The shape this asserts:

* zero failure rate costs exactly nothing (bit-identical clock);
* with fallback on, every point completes with identical results;
* overhead never goes negative, and the harshest schedule visibly
  exercises the failure machinery (retries / blacklists / fallbacks).
"""

from conftest import run_once
from paper import record_bench
from repro.common.errors import ReproError
from repro.core import GFlinkCluster, GFlinkSession
from repro.core.gpumanager import GPUManagerConfig
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.flink.chaos import ChaosSchedule, values_equal
from repro.workloads import PointAddWorkload


#: Fault arrivals per simulated second (GPU faults; worker kills at 1/4).
RATES = (0.0, 1.0, 2.0, 4.0)
CHAOS_SEED = 20160816
N_WORKERS = 3


def _config() -> ClusterConfig:
    return ClusterConfig(n_workers=N_WORKERS, cpu=CPUSpec(cores=2),
                         gpus_per_worker=("c2050",),
                         flink=FlinkConfig(retry_backoff_base_s=0.05))


def _workload() -> PointAddWorkload:
    return PointAddWorkload(nominal_elements=6000, real_elements=6000,
                            iterations=3)


def _run_point(rate: float, cpu_fallback: bool, duration: float,
               baseline) -> dict:
    config = _config()
    cluster = GFlinkCluster(
        config, gpu_config=GPUManagerConfig(cpu_fallback=cpu_fallback))
    # Kills arrive at an eighth of the GPU-fault rate: with replication 2
    # on three workers, losing two nodes means genuine data loss (no live
    # replica) — a failure no amount of lineage can recover from.
    schedule = ChaosSchedule.random(
        seed=CHAOS_SEED, duration_s=duration,
        workers=config.worker_names(), gpus_per_worker=1,
        worker_kill_rate=rate / 8.0, gpu_fault_rate=rate)
    engine = cluster.install_chaos(schedule)
    point = {"rate": rate, "cpu_fallback": cpu_fallback,
             "faults_scheduled": len(schedule)}
    try:
        result = _workload().run(GFlinkSession(cluster), "gpu")
    except ReproError as exc:
        point.update(completed=False, identical=False, cause=str(exc)[:120])
        return point
    summary = engine.summary()
    point.update(
        completed=True,
        identical=values_equal(baseline.value, result.value),
        makespan_s=round(result.total_seconds, 4),
        overhead=round(
            result.total_seconds / baseline.total_seconds - 1.0, 4),
        faults_applied=summary["events_applied"],
        workers_killed=len(summary["workers_killed"]),
        devices_blacklisted=sum(
            len(gm.blacklisted) for gm in cluster.gpu_managers()),
        retries=sum(m.retries for m in result.job_metrics),
        recovered_partitions=sum(
            m.recovered_partitions for m in result.job_metrics),
        fallback_tasks=sum(m.fallback_tasks for m in result.job_metrics))
    return point


def test_resilience_failure_rate_sweep(benchmark):
    def measure():
        baseline = _workload().run(GFlinkSession(GFlinkCluster(_config())),
                                   "gpu")
        # Faults may arrive any time from t=0 to the fault-free end of the
        # run (input preparation included — the clock is one timeline).
        duration = (baseline.job_metrics[0].started_at
                    + baseline.total_seconds)
        points = [_run_point(rate, fallback, duration, baseline)
                  for rate in RATES
                  for fallback in (True, False)]
        return baseline, points

    baseline, points = run_once(benchmark, measure)

    print("\n== Resilience: failure rate vs makespan overhead "
          f"(fault-free {baseline.total_seconds:.3f} s) ==")
    print(f"{'rate/s':>6} {'fallback':>8} {'done':>5} {'same':>5} "
          f"{'makespan':>9} {'overhead':>9} {'faults':>6} {'kills':>5} "
          f"{'blkl':>4} {'retry':>5} {'recov':>5} {'fback':>5}")
    for p in points:
        if p["completed"]:
            print(f"{p['rate']:>6.2f} {str(p['cpu_fallback']):>8} "
                  f"{'yes':>5} {'yes' if p['identical'] else 'NO':>5} "
                  f"{p['makespan_s']:>8.3f}s {p['overhead']:>+8.1%} "
                  f"{p['faults_applied']:>6} {p['workers_killed']:>5} "
                  f"{p['devices_blacklisted']:>4} {p['retries']:>5} "
                  f"{p['recovered_partitions']:>5} {p['fallback_tasks']:>5}")
        else:
            print(f"{p['rate']:>6.2f} {str(p['cpu_fallback']):>8} "
                  f"{'NO':>5} {'-':>5}  job failed: {p['cause']}")

    summary = {f"rate{p['rate']}-fallback{'on' if p['cpu_fallback'] else 'off'}": p
               for p in points}
    summary["baseline_s"] = round(baseline.total_seconds, 4)
    benchmark.extra_info["table"] = summary
    record_bench("resilience_failure_rate_sweep", summary)

    by_key = {(p["rate"], p["cpu_fallback"]): p for p in points}

    # Zero failure rate costs exactly nothing: the chaos machinery idles
    # and the simulated clock is bit-identical to the fault-free run.
    for fallback in (True, False):
        p = by_key[(0.0, fallback)]
        assert p["completed"] and p["identical"]
        assert p["overhead"] == 0.0, p

    # With CPU fallback, every schedule completes with identical results,
    # and faults only ever cost time.
    for rate in RATES:
        p = by_key[(rate, True)]
        assert p["completed"], p
        assert p["identical"], p
        assert p["overhead"] >= 0.0, p

    # The harshest schedule visibly exercises the failure machinery.
    worst = by_key[(RATES[-1], True)]
    assert worst["faults_applied"] > 0
    assert (worst["retries"] + worst["devices_blacklisted"]
            + worst["fallback_tasks"] + worst["recovered_partitions"]) > 0

    # The degradation knob is the difference between surviving the
    # harshest schedule and dying on it: with fallback off, subtasks on
    # the GPU-less worker burn their retry budget (deterministic for this
    # seed — the same schedule replays identically every run).
    assert not by_key[(RATES[-1], False)]["completed"]
