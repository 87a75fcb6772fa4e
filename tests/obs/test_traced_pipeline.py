"""Acceptance tests: traced end-to-end runs (ISSUE criteria).

A traced WordCount GPU run must produce a schema-valid Chrome trace with
distinct worker/GPU-device/copy-engine tracks, non-overlapping kernel
spans, and copy spans overlapping kernel spans (pipeline overlap).  The
same run with tracing disabled must record zero events and the identical
simulated makespan.
"""

from collections import defaultdict

import pytest

from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec, FailureInjector, \
    FlinkConfig, FlinkSession
from repro.obs.export import validate_chrome_trace
from repro.workloads import WordCountWorkload
from tests.flink.conftest import make_cluster


def instants(tracer, name):
    """The instants ``tracer`` drew under ``name``."""
    return [e for e in tracer.events if e.ph == "i" and e.name == name]


def traced_wordcount(enable_tracing: bool):
    cluster = GFlinkCluster(ClusterConfig(
        n_workers=2, cpu=CPUSpec(cores=2),
        gpus_per_worker=("c2050", "c2050"),
        flink=FlinkConfig(enable_tracing=enable_tracing)))
    # Nominal size chosen so each partition spans many pipeline blocks:
    # that is what makes copy/kernel overlap observable in the trace.
    workload = WordCountWorkload(nominal_elements=2e8, real_elements=4000)
    result = workload.run(GFlinkSession(cluster), "gpu")
    return cluster, result


@pytest.fixture(scope="module")
def traced():
    return traced_wordcount(enable_tracing=True)


class TestTracedWordCount:
    def test_trace_validates(self, traced):
        cluster, _ = traced
        assert validate_chrome_trace(cluster.obs.tracer.to_chrome()) == []

    def test_distinct_worker_device_and_copy_tracks(self, traced):
        cluster, _ = traced
        tracks = cluster.obs.tracer.track_names()
        workers = [p for p in tracks if p.startswith("worker")
                   and "gpu" not in p]
        devices = [p for p in tracks if "-gpu" in p]
        assert workers and devices
        assert any(t.startswith("slot") for t in tracks[workers[0]])
        lanes = tracks[devices[0]]
        assert "kernel" in lanes
        assert "copy:h2d" in lanes and "copy:d2h" in lanes

    def test_kernel_spans_never_overlap_per_engine(self, traced):
        cluster, _ = traced
        tracer = cluster.obs.tracer
        by_engine = defaultdict(list)
        for ev in tracer.spans(cat="gpu.device"):
            if ev.name not in ("h2d", "d2h"):
                by_engine[(ev.pid, ev.tid)].append(ev)
        assert by_engine, "no kernel spans recorded"
        for spans in by_engine.values():
            spans.sort(key=lambda e: e.ts)
            for prev, cur in zip(spans, spans[1:]):
                assert not prev.overlaps(cur), (prev, cur)

    def test_copy_spans_overlap_kernels(self, traced):
        """Async copies run concurrently with kernels (pipeline overlap)."""
        cluster, _ = traced
        tracer = cluster.obs.tracer
        kernels = [e for e in tracer.spans(cat="gpu.device")
                   if e.name not in ("h2d", "d2h")]
        copies = [e for e in tracer.spans(cat="gpu.device")
                  if e.name in ("h2d", "d2h")]
        assert any(c.overlaps(k) for c in copies for k in kernels
                   if c.pid == k.pid)

    def test_job_and_gpu_metrics_recorded(self, traced):
        cluster, _ = traced
        reg = cluster.obs.registry
        assert reg.sum_values("jobs.completed") >= 1
        assert reg.sum_values("gwork.submitted") >= 1
        assert reg.sum_values("gpu.pcie.h2d.bytes") > 0
        assert reg.sum_values("gpu.kernel.seconds") > 0

    def test_disabled_run_adds_zero_events_and_no_clock_divergence(
            self, traced):
        _, traced_result = traced
        cluster, result = traced_wordcount(enable_tracing=False)
        assert len(cluster.obs.tracer) == 0
        assert len(cluster.obs.registry) == 0
        assert result.total_seconds == traced_result.total_seconds


class TestTracedFaults:
    def test_retry_instants_counter_and_attribution(self):
        cluster = make_cluster(enable_tracing=True)
        injector = FailureInjector(plan={("flaky-map", 0): 2})
        session = FlinkSession(cluster, failure_injector=injector)
        result = session.from_collection(list(range(10)), parallelism=2) \
            .map(lambda x: x * 2, name="flaky-map").collect()
        assert result.metrics.retries == 2

        tracer = cluster.obs.tracer
        retries = instants(tracer, "task.retry")
        assert len(retries) == 2
        assert all(ev.args["op"] == "flaky-map" for ev in retries)
        assert [ev.args["attempt"] for ev in retries] == [0, 1]
        faults = instants(tracer, "fault.injected")
        assert len(faults) == 2

        reg = cluster.obs.registry.snapshot()
        assert reg["task.retries{op=flaky-map}"] == 2
        assert reg["faults.injected{op=flaky-map}"] == 2
        # The injector's own attribution log mirrors the trace.
        assert injector.injected == [("flaky-map", 0, 0), ("flaky-map", 0, 1)]

    def test_placement_instants_cover_all_subtasks(self):
        cluster = make_cluster(enable_tracing=True)
        session = FlinkSession(cluster)
        session.from_collection(list(range(8)), parallelism=4) \
            .map(lambda x: x + 1, name="m").count()
        places = instants(cluster.obs.tracer, "place")
        assert len(places) >= 4
        assert all(ev.args["reason"] in
                   ("block-local", "spread", "colocate-input")
                   for ev in places)
