"""Online monitoring with GMonitor: SLOs, alerts, health, dashboard.

A WordCount GPU run executes under the online telemetry plane
(:mod:`repro.obs.monitor`) while a chaos schedule kills a worker mid-job:

* every fact lands in the fixed window of simulated time it happened in,
* the chaos heartbeat misses feed the ``worker_unhealthy`` alert, which
  fires when the worker dies and resolves once the master declares the
  death and the cluster moves on,
* stranded subtasks retry elsewhere, burning the ``task_availability``
  SLO's error budget (watch the burn rate),
* worker/device/cluster health scores track the incident window,
* and the whole run renders into a self-contained HTML dashboard
  (no external dependencies — open it in any browser).

The monitor never schedules simulation events, so the simulated clock is
bit-identical whether monitoring is on or off.

Run:  python examples/monitor_run.py
"""

from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.flink.chaos import ChaosSchedule
from repro.obs.dashboard import write_dashboard
from repro.obs.monitor import validate_monitor_summary
from repro.workloads import WordCountWorkload


def main():
    cluster = GFlinkCluster(ClusterConfig(
        n_workers=4, cpu=CPUSpec(cores=2), gpus_per_worker=("c2050",),
        flink=FlinkConfig(enable_monitoring=True, monitor_window_s=1.0,
                          retry_backoff_base_s=0.05)))
    monitor = cluster.obs.monitor
    # Gate the built-in availability SLO; job latency stays tracking-only.
    monitor.set_availability_target(0.995)

    schedule = ChaosSchedule()
    schedule.kill_worker("worker1", at=100.0)
    cluster.install_chaos(schedule)

    workload = WordCountWorkload(real_elements=4000)
    result = workload.run(GFlinkSession(cluster), "gpu")
    monitor.finalize()

    summary = monitor.summary()
    assert validate_monitor_summary(summary) == []

    health = summary["health"]
    print(f"wordcount under a worker kill: {result.total_seconds:.2f} s, "
          f"{summary['windows_closed']} monitor windows")
    print(f"cluster health {health['cluster']:.0f}/100 "
          f"({', '.join(f'{w}={v:.0f}' for w, v in sorted(health['workers'].items()))})")
    for slo in summary["slos"]:
        print(f"SLO {slo['name']}: {slo['events']} events, "
              f"{slo['bad']} bad, burn {slo['burn_rate']:.2f}x"
              + (" — VIOLATED" if slo["violated"] else ""))
    for alert in summary["alerts"]:
        resolved = (f"resolved @ {alert['resolved_at_s']:.0f} s"
                    if alert["resolved_at_s"] is not None else "unresolved")
        print(f"alert [{alert['severity']}] {alert['rule']} "
              f"on {alert['series']}: fired @ {alert['fired_at_s']:.0f} s, "
              f"{resolved}")

    path = "monitor-dashboard.html"
    write_dashboard(summary, path, title="GMonitor: wordcount worker-kill")
    print(f"dashboard: {path} (self-contained HTML — open in a browser)")


if __name__ == "__main__":
    main()
