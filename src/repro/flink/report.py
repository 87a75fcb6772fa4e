"""Human-readable reports from a run.

* :func:`profile_summary` — the GProfiler summary of a traced cluster;
* :func:`resilience_report` — a chaos run's faults, detection, recovery
  and overhead, as ``repro chaos`` prints it.
"""

from __future__ import annotations


def profile_summary(cluster) -> dict:
    """The GProfiler summary for a traced cluster (machine-readable).

    Runs critical-path extraction, bottleneck classification and
    utilization analysis (:mod:`repro.obs.profile`) over the cluster's
    tracer.  With tracing disabled the trace is empty and the summary is
    all zeros — call sites need no enable check.
    """
    from repro.obs.profile import summarize_tracer
    return summarize_tracer(cluster.obs.tracer)


#: Counters surfaced by :func:`resilience_report` (name, display label).
_RESILIENCE_COUNTERS = (
    ("chaos.events", "chaos events applied"),
    ("chaos.skipped", "chaos events skipped"),
    ("worker.failures", "worker failures"),
    ("worker.declared_dead", "deaths declared"),
    ("device.blacklisted", "devices blacklisted"),
    ("task.retries", "task retries"),
    ("recovery.recomputed_partitions", "partitions recomputed"),
    ("fallback.cpu_tasks", "CPU-fallback tasks"),
    ("churn.joins", "workers joined"),
    ("churn.drains", "workers drained"),
    ("churn.leaves", "workers left"),
    ("rebalance.partitions", "partitions migrated"),
    ("autoscale.decisions", "autoscaler decisions"),
)


def resilience_report(engine, result, baseline=None, registry=None) -> str:
    """Text summary of a chaos run: faults, detection, recovery, overhead.

    ``engine`` is the run's :class:`~repro.flink.chaos.ChaosEngine`,
    ``result`` (and the optional fault-free ``baseline``) are
    :class:`~repro.workloads.base.WorkloadResult` s, and ``registry`` is the
    chaos cluster's metrics registry (for the failure-domain counters).
    """
    summary = engine.summary()
    lines = ["resilience report",
             f"  faults applied        {summary['events_applied']:>8d}"]
    for kind in sorted(summary["by_kind"]):
        lines.append(f"    {kind:<20} {summary['by_kind'][kind]:>8d}")
    if summary["workers_killed"]:
        lines.append(f"  workers killed        "
                     f"{', '.join(summary['workers_killed'])}")
    for name in sorted(summary["detection_latency_s"]):
        lines.append(f"  detection latency     {name}: "
                     f"{summary['detection_latency_s'][name]:.2f} s")
    recovery = summary.get("recovery_latency_s") or {}
    if recovery.get("count"):
        lines.append(
            f"  recovery latency      p50 {recovery['p50']:.2f} s   "
            f"p95 {recovery['p95']:.2f} s   p99 {recovery['p99']:.2f} s   "
            f"max {recovery['max']:.2f} s "
            f"({recovery['count']:.0f} events)")
    retries = sum(m.retries for m in result.job_metrics)
    recovered = sum(m.recovered_partitions for m in result.job_metrics)
    fallback = sum(m.fallback_tasks for m in result.job_metrics)
    lines += [f"  task retries          {retries:>8d}",
              f"  partitions recovered  {recovered:>8d}",
              f"  CPU-fallback tasks    {fallback:>8d}"]
    if baseline is not None and baseline.total_seconds > 0:
        overhead = result.total_seconds / baseline.total_seconds - 1.0
        lines.append(f"  makespan              {result.total_seconds:8.3f} s "
                     f"(fault-free {baseline.total_seconds:.3f} s, "
                     f"overhead {overhead:+.1%})")
    else:
        lines.append(f"  makespan              "
                     f"{result.total_seconds:8.3f} s")
    if registry is not None:
        lines.append("  counters:")
        for name, label in _RESILIENCE_COUNTERS:
            total = registry.sum_values(name)
            if total:
                lines.append(f"    {label:<22} {total:>8.0f}")
    return "\n".join(lines)
