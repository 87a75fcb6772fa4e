"""Flight recorder tests: capture, dumps, validation, CLI rendering.

Unit layer on a fake clock (ring-buffer bounds, bundle cap, schema
checks) plus end-to-end: a chaos fault produces a validated on-disk
bundle, a fired alert carries its bundle filename into the monitor
summary, and ``repro postmortem`` renders the directory.
"""

import io
import json

import pytest

from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.flink.chaos import ChaosSchedule
from repro.obs.flightrecorder import (
    POSTMORTEM_SCHEMA,
    FlightRecorder,
    load_bundles,
    render_bundle,
    validate_postmortem_bundle,
)
from repro.obs.monitor import GMonitor
from repro.workloads import WordCountWorkload


class FakeEnv:
    def __init__(self, now: float = 0.0):
        self.now = now


class FakeSeries:
    def __init__(self, key, kind="counter"):
        self.key = key
        self.kind = kind


class TestRecorderUnit:
    def test_window_ring_is_bounded(self):
        rec = FlightRecorder(FakeEnv(), window_capacity=3)
        for i in range(6):
            rec.record_windows(i, float(i), [(FakeSeries("x"), i)])
        assert [w["idx"] for w in rec.windows] == [3, 4, 5]

    def test_dump_writes_validated_bundle(self, tmp_path):
        rec = FlightRecorder(FakeEnv(now=42.5), dirpath=tmp_path)
        rec.record_windows(0, 1.0, [(FakeSeries("tasks"), 7)])
        name = rec.dump("fault:worker-kill", detail={"worker": "w1"})
        assert name == "postmortem-000-fault-worker-kill.json"
        doc = json.loads((tmp_path / name).read_text())
        assert validate_postmortem_bundle(doc) == []
        assert doc["schema"] == POSTMORTEM_SCHEMA
        assert doc["triggered_at_s"] == 42.5
        assert doc["detail"] == {"worker": "w1"}
        assert doc["metric_windows"][0]["series"] == "tasks"

    def test_max_bundles_cap_counts_skips(self, tmp_path):
        rec = FlightRecorder(FakeEnv(), dirpath=tmp_path, max_bundles=2)
        assert rec.dump("a") is not None
        assert rec.dump("b") is not None
        assert rec.dump("c") is None
        assert rec.skipped == 1
        assert len(list(tmp_path.glob("postmortem-*.json"))) == 2

    def test_no_dirpath_keeps_bundle_in_memory(self):
        rec = FlightRecorder(FakeEnv())
        rec.dump("alert:hot")
        assert rec.last_bundle is not None
        assert rec.last_bundle["reason"] == "alert:hot"
        assert validate_postmortem_bundle(rec.last_bundle) == []

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(FakeEnv(), span_capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(FakeEnv(), max_bundles=0)

    def test_attached_explanation_rides_bundles(self):
        from repro.obs.explain import explain_summaries
        rec = FlightRecorder(FakeEnv())
        s = {"makespan_s": 5.0, "critical_path": {"segments": []},
             "operators": {}, "devices": {}}
        rec.attach_explanation(explain_summaries(s, s))
        rec.dump("fault:gpu-ecc")
        assert rec.last_bundle["explain"] is not None
        assert validate_postmortem_bundle(rec.last_bundle) == []
        assert "explain" in render_bundle(rec.last_bundle)

    def test_validator_rejects_broken_documents(self):
        assert validate_postmortem_bundle([]) != []
        rec = FlightRecorder(FakeEnv())
        rec.dump("x")
        good = rec.last_bundle
        bad = dict(good, schema="nope")
        assert any("schema" in e
                   for e in validate_postmortem_bundle(bad))
        bad = dict(good, metric_windows=[{"idx": 3}, {"idx": 1}])
        assert any("order" in e for e in validate_postmortem_bundle(bad))
        bad = dict(good, trace_slice=[{"name": "no-ts"}])
        assert any("ts" in e for e in validate_postmortem_bundle(bad))

    def test_alert_dump_via_monitor_wiring(self):
        env = FakeEnv()
        rec = FlightRecorder(env)
        mon = GMonitor(env, recorder=rec)
        env.now = 5.0
        # worker_unhealthy, sustained=1
        mon.count("worker.heartbeat.missed", worker="worker0")
        env.now = 7.0
        mon.finalize()
        fired = [a for a in mon.alerts.history
                 if a.rule == "worker_unhealthy"]
        assert fired
        assert fired[0].bundle == rec.bundles[0]
        assert rec.last_bundle["reason"] == "alert:worker_unhealthy"
        assert any(a["bundle"] == rec.bundles[0]
                   for a in mon.summary()["alerts"])


def chaos_cluster(postmortem_dir, monitoring=True):
    config = ClusterConfig(
        n_workers=4, cpu=CPUSpec(cores=2), gpus_per_worker=("c2050",),
        flink=FlinkConfig(enable_tracing=True,
                          enable_monitoring=monitoring,
                          retry_backoff_base_s=0.05,
                          enable_flight_recorder=True,
                          flight_recorder_dir=str(postmortem_dir)))
    cluster = GFlinkCluster(config)
    schedule = ChaosSchedule()
    schedule.kill_worker("worker1", at=100.0)
    cluster.install_chaos(schedule)
    return cluster


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        pm_dir = tmp_path_factory.mktemp("postmortems")
        cluster = chaos_cluster(pm_dir)
        WordCountWorkload(real_elements=4000).run(
            GFlinkSession(cluster), "gpu")
        cluster.obs.monitor.finalize()
        return cluster, pm_dir

    def test_fault_dumps_validated_bundle(self, run):
        cluster, pm_dir = run
        rec = cluster.obs.recorder
        fault = [b for b in rec.bundles if "fault-worker-kill" in b]
        assert fault, f"no fault bundle in {rec.bundles}"
        doc = json.loads((pm_dir / fault[0]).read_text())
        assert validate_postmortem_bundle(doc) == []
        assert doc["detail"]["worker"] == "worker1"
        assert doc["triggered_at_s"] == pytest.approx(100.0)
        assert doc["trace_slice"], "trace slice empty with tracing on"

    def test_alert_bundles_linked_in_summary(self, run):
        cluster, pm_dir = run
        summary = cluster.obs.monitor.summary()
        linked = [a for a in summary["alerts"] if a.get("bundle")]
        assert linked, "no alert carries a bundle filename"
        for a in linked:
            assert (pm_dir / a["bundle"]).exists()

    def test_bundle_has_monitor_context(self, run):
        cluster, pm_dir = run
        unhealthy = [b for b in cluster.obs.recorder.bundles
                     if "worker_unhealthy" in b]
        assert unhealthy
        doc = json.loads((pm_dir / unhealthy[0]).read_text())
        assert doc["health"].get("workers")
        assert doc["alerts"]
        assert doc["trends"]
        assert doc["metric_windows"]

    def test_postmortem_cli_renders_directory(self, run):
        from repro.cli import main
        _, pm_dir = run
        out = io.StringIO()
        assert main(["postmortem", str(pm_dir)], out=out) == 0
        text = out.getvalue()
        assert "post-mortem: fault:worker-kill" in text
        assert "trace slice" in text

    def test_postmortem_cli_rejects_missing_and_invalid(self, tmp_path):
        from repro.cli import main
        out = io.StringIO()
        assert main(["postmortem", str(tmp_path)], out=out) == 2
        bad = tmp_path / "postmortem-000-x.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        out = io.StringIO()
        assert main(["postmortem", str(tmp_path)], out=out) == 2
        assert "INVALID" in out.getvalue()

    def test_load_bundles_single_file(self, run):
        _, pm_dir = run
        first = sorted(pm_dir.glob("postmortem-*.json"))[0]
        loaded = load_bundles(str(first))
        assert len(loaded) == 1
        assert loaded[0][0] == first.name
