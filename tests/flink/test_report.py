"""Tests for the run reports: the metrics text and the profile summary."""

from repro.flink import FlinkSession, OpCost
from repro.flink.report import profile_summary
from repro.obs.profile import render_text
from tests.flink.conftest import make_cluster


def run_job(session):
    return session.from_collection(list(range(100)), element_nbytes=8.0,
                                   scale=100.0) \
        .map(lambda x: x + 1, cost=OpCost(flops_per_element=10.0),
             name="plus-one") \
        .group_by(lambda x: x % 3) \
        .reduce(lambda a, b: a + b, name="mod-sum") \
        .collect(job_name="report-demo")


class TestMetricsSummary:
    def test_renders_job_counters(self):
        cluster = make_cluster(enable_tracing=True)
        session = FlinkSession(cluster)
        run_job(session)
        text = cluster.obs.registry.render()
        assert "jobs.completed" in text
        assert "job.subtasks{job=report-demo}" in text
        assert "job.makespan_s" in text

    def test_untraced_cluster_records_nothing(self, cluster, session):
        run_job(session)
        assert cluster.obs.registry.render() == "no metrics recorded"


class TestProfileSummary:
    def test_traced_cluster_profiles(self):
        import math
        cluster = make_cluster(enable_tracing=True)
        session = FlinkSession(cluster)
        run_job(session)
        summary = profile_summary(cluster)
        assert summary["schema"] == "repro.profile.summary/v1"
        assert summary["makespan_s"] > 0
        cats = summary["critical_path"]["categories"]
        assert math.isclose(sum(cats.values()), summary["makespan_s"],
                            rel_tol=1e-9, abs_tol=1e-9)
        assert "plus-one" in summary["operators"]
        text = render_text(summary)
        assert "critical path" in text

    def test_untraced_cluster_profiles_empty(self, cluster, session):
        run_job(session)
        summary = profile_summary(cluster)
        assert summary["makespan_s"] == 0.0
        assert summary["span_count"] == 0
