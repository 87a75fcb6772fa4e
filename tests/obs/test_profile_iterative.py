"""GProfiler over a traced iterative job: repeated operator names, the cost
of a summary, and span-derived totals against the cluster's own counters.

An iterative workload emits each operator once per iteration under one
name.  Everything here runs a small traced PageRank-GPU job.
"""

import sys
from collections import Counter

import pytest

from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.obs import profile
from repro.obs.profile import (
    ProfileTrace, summarize, summarize_tracer, validate_profile_summary)
from repro.workloads import PageRankWorkload


def traced_pagerank(iterations):
    cluster = GFlinkCluster(ClusterConfig(
        n_workers=2, cpu=CPUSpec(cores=2), gpus_per_worker=("c2050", "c2050"),
        flink=FlinkConfig(enable_tracing=True)))
    workload = PageRankWorkload(nominal_pages=1e5, real_pages=500,
                                iterations=iterations)
    workload.prepare(cluster)
    workload.register_kernels(cluster.registry)
    workload.run(GFlinkSession(cluster), "gpu")
    return cluster


@pytest.fixture(scope="module")
def three():
    return traced_pagerank(3)


@pytest.fixture(scope="module")
def six():
    return traced_pagerank(6)


class TestRepeatedOperatorNames:
    def test_entry_is_consistent_over_its_occurrences(self, three):
        trace = ProfileTrace.from_tracer(three.obs.tracer)
        operators = summarize(trace)["operators"]
        iterated = {op: e for op, e in operators.items()
                    if "occurrences" in e}
        assert iterated and all(e["occurrences"] == 3
                                for e in iterated.values())
        assert "pagerank-sum" in iterated
        for op, entry in operators.items():
            spans = [s for s in trace.by_cat("operator")
                     if s.args["op"] == op]
            assert entry.get("occurrences", 1) == len(spans)
            assert entry["wall_s"] == pytest.approx(
                sum(s.end - s.ts for s in spans), rel=1e-12)
            assert entry["task_latency_s"]["count"] == \
                entry["parallelism"] * len(spans)
            assert sum(entry["shares"].values()) == pytest.approx(1.0)

    def test_summary_validates(self, three):
        assert validate_profile_summary(
            summarize_tracer(three.obs.tracer)) == []


class TestSummaryCost:
    """Wall-clock-free: what a summary costs is counted, not timed."""

    @staticmethod
    def profiler_calls(tracer):
        """Calls per function of ``repro.obs.profile`` in one summary."""
        calls = Counter()
        filename = profile.__file__

        def count(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename == filename:
                calls[frame.f_code.co_qualname] += 1

        sys.setprofile(count)
        try:
            summarize_tracer(tracer)
        finally:
            sys.setprofile(None)
        return calls

    def test_each_device_span_is_categorised_once(self, three, six):
        for cluster in (three, six):
            tracer = cluster.obs.tracer
            calls = self.profiler_calls(tracer)
            assert calls["_device_cat"] == len(tracer.spans("gpu.device")) > 0

    def test_no_function_grows_faster_than_the_job(self, three, six):
        short = self.profiler_calls(three.obs.tracer)
        long = self.profiler_calls(six.obs.tracer)
        assert set(short) == set(long)
        for name, n in long.items():
            assert n <= 2.2 * short[name], (name, short[name], n)


class TestCrossConsistency:
    """Span-derived totals equal what the model counted itself."""

    def test_totals_match_the_cluster(self, three):
        tracer = three.obs.tracer
        summary = summarize_tracer(tracer)
        assert summary["totals"]["pcie_bytes"] == three.total_pcie_bytes() > 0
        assert summary["totals"]["kernel_busy_s"] == pytest.approx(
            three.total_kernel_seconds(), abs=1e-9)
        assert summary["span_count"] == \
            sum(1 for e in tracer.events if e.ph == "X")


class TestSharesValidation:
    def test_rejects_shares_that_do_not_sum_to_one(self, three):
        summary = summarize_tracer(three.obs.tracer)
        summary["operators"]["pagerank-sum"]["shares"]["cpu"] += 1e-3
        assert any("shares" in e and "pagerank-sum" in e
                   for e in validate_profile_summary(summary))
