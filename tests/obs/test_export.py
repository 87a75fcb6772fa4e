"""Exporter tests: Chrome-JSON schema validation, file writers, collector."""

import json
import tracemalloc

import numpy as np
import pytest

from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.gpu import KernelSpec
from repro.obs import Observability
from repro.obs.export import (
    collect_cluster,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import CHROME_CHUNK, Tracer
from repro.obs.validate import main as validate_main


class Clock:
    now = 1.0


def small_trace() -> Tracer:
    obs = Observability(Clock(), tracing=True)
    with obs.span("job", "worker0", "slot0", job="j"):
        pass
    obs.emit("fault.injected", "worker0", "slot0", op="m")
    return obs.tracer


class TestSchemaValidation:
    def test_valid_document_passes(self):
        assert validate_chrome_trace(small_trace().to_chrome()) == []

    def test_root_must_be_object_with_trace_events(self):
        assert validate_chrome_trace([]) == \
            ["document root must be an object"]
        assert validate_chrome_trace({}) == \
            ["document must contain a traceEvents array"]

    def test_rejects_unknown_phase(self):
        doc = small_trace().to_chrome()
        doc["traceEvents"][2]["ph"] = "B"
        assert any("ph must be one of" in e
                   for e in validate_chrome_trace(doc))

    def test_rejects_negative_ts_and_dur(self):
        doc = small_trace().to_chrome()
        doc["traceEvents"][2]["ts"] = -1
        doc["traceEvents"][2]["dur"] = -2
        errors = validate_chrome_trace(doc)
        assert any("ts must be" in e for e in errors)
        assert any("non-negative dur" in e for e in errors)

    def test_rejects_event_on_unnamed_process(self):
        doc = small_trace().to_chrome()
        doc["traceEvents"] = [e for e in doc["traceEvents"]
                              if e.get("ph") != "M"]
        assert any("no process_name metadata" in e
                   for e in validate_chrome_trace(doc))

    def test_rejects_bad_instant_scope_and_metadata(self):
        doc = small_trace().to_chrome()
        doc["traceEvents"][3]["s"] = "q"
        doc["traceEvents"][0]["args"] = {}
        errors = validate_chrome_trace(doc)
        assert any("s must be t/p/g" in e for e in errors)
        assert any("args.name must be a string" in e for e in errors)


def engine_trace(ts_pairs, lane="kernel") -> Tracer:
    """A one-device trace with explicit spans on one engine lane."""
    obs = Observability(Clock(), tracing=True)
    for start, end in ts_pairs:
        obs.emit("kernel", "worker0-gpu0", lane, start, end, kernel="k",
                 seconds=end - start)
    return obs.tracer


class TestExclusiveLaneOverlap:
    def test_overlap_on_kernel_lane_rejected(self):
        doc = engine_trace([(0.0, 2.0), (1.0, 3.0)]).to_chrome()
        errors = validate_chrome_trace(doc)
        assert any("exclusive lane" in e for e in errors)

    def test_overlap_on_copy_lane_rejected(self):
        doc = engine_trace([(0.0, 2.0), (0.5, 1.0)],
                           lane="copy:h2d").to_chrome()
        assert any("exclusive lane" in e
                   for e in validate_chrome_trace(doc))

    def test_back_to_back_spans_pass(self):
        doc = engine_trace([(0.0, 1.0), (1.0, 2.0), (2.0, 2.0)]).to_chrome()
        assert validate_chrome_trace(doc) == []

    def test_overlap_on_virtual_lane_allowed(self):
        # Streams and slots are virtual lanes — overlap is legitimate there.
        doc = engine_trace([(0.0, 2.0), (1.0, 3.0)],
                           lane="stream0").to_chrome()
        assert validate_chrome_trace(doc) == []

    def test_committed_ci_traces_validate(self):
        from pathlib import Path
        traces = Path(__file__).resolve().parents[2] / "traces"
        for name in ("ci_wordcount.json", "ci_chaos_wordcount.json"):
            path = traces / name
            if path.exists():
                assert validate_chrome_trace_file(path) == [], name


class TestWriters:
    def test_trace_roundtrip(self, tmp_path):
        path = tmp_path / "nested" / "trace.json"
        write_chrome_trace(small_trace(), path)
        assert validate_chrome_trace_file(path) == []

    def test_metrics_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("hits", device="d0").inc(3)
        path = write_metrics(reg, tmp_path / "metrics.json")
        assert json.loads(path.read_text())["hits{device=d0}"] == 3.0

    def test_validate_file_reports_unreadable(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert any("cannot load" in e
                   for e in validate_chrome_trace_file(bad))

    def test_validate_cli(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        write_chrome_trace(small_trace(), good)
        assert validate_main([str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "Z"}]}))
        assert validate_main([str(bad)]) == 1


def lane_trace(n: int) -> Tracer:
    """``n`` kernel spans on one lane (two metadata records name it)."""
    obs = Observability(Clock(), tracing=True)
    for i in range(n):
        obs.emit("kernel", "worker0-gpu0", "kernel", float(i), i + 0.5,
                 kernel="k", seconds=0.5)
    return obs.tracer


def metadata_only() -> Tracer:
    tracer = Tracer(Clock(), enabled=True)
    tracer.track("worker0", "slot0")
    tracer.track("worker0", "slot1")
    return tracer


class TestStreamedTrace:
    """The file is written a chunk at a time and replaced only when whole."""

    @pytest.mark.parametrize("make", [
        lambda: Tracer(Clock(), enabled=False),
        lambda: Tracer(Clock(), enabled=True),
        metadata_only,
        *(lambda n=n: lane_trace(n) for n in (
            1, CHROME_CHUNK - 1, CHROME_CHUNK, CHROME_CHUNK + 1,
            2 * CHROME_CHUNK + 1)),
    ], ids=["disabled", "empty", "metadata-only", "1", "chunk-1", "chunk",
            "chunk+1", "2chunk+1"])
    def test_bytes_are_the_whole_document_dumped(self, make, tmp_path):
        tracer = make()
        path = write_chrome_trace(tracer, tmp_path / "trace.json")
        assert path.read_text() == json.dumps(tracer.to_chrome()) + "\n"
        assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]

    def test_unencodable_event_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(small_trace(), path)
        before = path.read_bytes()
        tracer = lane_trace(CHROME_CHUNK + 1)
        with tracer.span("bad", "task", tracer.track("worker0", "slot0"),
                         blob=object()):
            pass
        with pytest.raises(TypeError):
            write_chrome_trace(tracer, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]

    def test_peak_memory_does_not_grow_with_the_trace(self, tmp_path):
        def export_peak(n: int) -> int:
            tracer = lane_trace(n)
            len(tracer)  # draw the events before measuring the export
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                write_chrome_trace(tracer, tmp_path / "trace.json")
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        n = 2 * CHROME_CHUNK
        assert export_peak(4 * n) <= 1.5 * export_peak(n)


class TestCollectCluster:
    def test_gathers_public_counters_as_gauges(self):
        cluster = GFlinkCluster(ClusterConfig(
            n_workers=1, cpu=CPUSpec(cores=2), gpus_per_worker=("c2050",),
            flink=FlinkConfig(enable_tracing=True)))
        session = GFlinkSession(cluster)
        session.register_kernel(KernelSpec(
            "double", lambda i, p: {"out": i["in"] * 2.0},
            flops_per_element=2.0))
        data = np.arange(1000, dtype=np.float64)
        ds = session.from_collection(data, element_nbytes=8,
                                     parallelism=2).persist()
        ds.materialize()
        ds.gpu_map_partition("double", cache=True,
                             cache_key_base="r").count()
        reg = collect_cluster(cluster.obs.registry, cluster).snapshot()
        device = cluster.gpu_managers()[0].devices[0].name
        assert reg[f"gpu.device.kernel_seconds{{device={device}}}"] > 0
        assert reg["tasks.executed{worker=worker0}"] > 0
        assert reg["gstream.works_submitted{worker=worker0}"] >= 1
        # Cache gauges come from the public cache_stats() API.
        assert f"gpu.cache.used_bytes{{device={device}}}" in reg
