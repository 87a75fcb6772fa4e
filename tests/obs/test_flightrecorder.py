"""Flight recorder tests: dumps, validation, CLI rendering.

Unit layer on a fake clock (window-slice bounds, bundle cap, schema
checks) plus end-to-end: a chaos fault produces a validated on-disk
bundle, a fired alert carries its bundle filename into the monitor
summary, every bundle's metric windows are the summary's own points, and
``repro postmortem`` renders the directory or refuses a bundle it cannot
render.
"""

import io
import json

import pytest

from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.flink.chaos import ChaosSchedule
from repro.obs.flightrecorder import (
    MAX_BUNDLES,
    POSTMORTEM_SCHEMA,
    WINDOW_CAPACITY,
    FlightRecorder,
    load_bundles,
    render_bundle,
    validate_postmortem_bundle,
)
from repro.obs.metrics import label_items, render_key
from repro.obs.bus import Observability
from repro.workloads import WordCountWorkload


class FakeEnv:
    def __init__(self, now: float = 0.0):
        self.now = now


class TestRecorderUnit:
    def test_window_ring_is_bounded(self):
        """A bundle carries the newest WINDOW_CAPACITY closed values, in
        window order and then closing order."""
        env = FakeEnv()
        obs = Observability(env, monitoring=True)
        n = WINDOW_CAPACITY // 2 + 10
        for i in range(n):
            env.now = i + 0.5
            for _ in range(i + 1):
                obs.emit("heartbeat.missed", worker="w0")
            obs.emit("slot_pressure", pressure=-i)
        env.now = float(n)
        obs.monitor.tick()
        rec = FlightRecorder(env)
        rec.dump("x", monitor=obs.monitor)
        windows = rec.last_bundle["metric_windows"]
        assert len(windows) == WINDOW_CAPACITY
        missed, pressure = ("worker.heartbeat.missed{worker=w0}",
                            "scheduler.slot_pressure")
        assert [(w["idx"], w["series"], w["value"]) for w in windows] \
            == [(i, key, v) for i in range(n)
                for key, v in ((missed, float(i + 1)), (pressure, float(-i)))
                ][-WINDOW_CAPACITY:]
        assert windows[-1]["t_end_s"] == float(n)

    def test_dump_writes_validated_bundle(self, tmp_path):
        env = FakeEnv(now=0.5)
        obs = Observability(env, monitoring=True)
        obs.emit("slot_pressure", pressure=7)
        env.now = 42.5
        obs.monitor.tick()
        rec = FlightRecorder(env, dirpath=tmp_path)
        name = rec.dump("fault:worker-kill", detail={"worker": "w1"},
                        monitor=obs.monitor)
        assert name == "postmortem-000-fault-worker-kill.json"
        doc = json.loads((tmp_path / name).read_text())
        assert validate_postmortem_bundle(doc) == []
        assert doc["schema"] == POSTMORTEM_SCHEMA
        assert doc["triggered_at_s"] == 42.5
        assert doc["detail"] == {"worker": "w1"}
        assert doc["metric_windows"][0]["series"] \
            == "scheduler.slot_pressure"

    def test_max_bundles_cap_counts_skips(self, tmp_path):
        rec = FlightRecorder(FakeEnv(), dirpath=tmp_path)
        for i in range(MAX_BUNDLES):
            assert rec.dump(f"r{i}") is not None
        assert rec.dump("one-too-many") is None
        assert rec.skipped == 1
        assert len(list(tmp_path.glob("postmortem-*.json"))) == MAX_BUNDLES

    def test_no_dirpath_keeps_bundle_in_memory(self):
        rec = FlightRecorder(FakeEnv())
        rec.dump("alert:hot")
        assert rec.last_bundle is not None
        assert rec.last_bundle["reason"] == "alert:hot"
        assert validate_postmortem_bundle(rec.last_bundle) == []

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
        obs = Observability(env, monitoring=True, flight_recorder=True)
        rec, mon = obs.recorder, obs.monitor
        env.now = 5.0
        # worker_unhealthy, sustained=1
        obs.emit("heartbeat.missed", worker="worker0")
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


#: A valid bundle; each row of the table below breaks one field of it.
GOOD_BUNDLE = {
    "schema": POSTMORTEM_SCHEMA, "reason": "fault:worker-kill",
    "triggered_at_s": 1.0, "detail": {}, "trace_slice": [],
    "metric_windows": [{"idx": 0, "series": "x", "value": 1.0}],
    "alerts": [], "health": {"cluster": 100.0, "workers": {"w": 100.0}},
}


class TestPostmortemRefusals:
    @pytest.mark.parametrize("field, value, error", [
        ("schema", "nope", "schema must be"),
        ("alerts", [1], "alerts[0] must be an object"),
        ("alerts", [{"rule": "r", "series": "s", "fired_at_s": 1.0}],
         "alerts[0].severity missing"),
        ("alerts", [{"rule": "r", "series": "s", "fired_at_s": "soon",
                     "severity": "warning"}],
         "alerts[0].fired_at_s must be a number"),
        ("alerts", [{"rule": "r", "series": "s", "fired_at_s": 1.0,
                     "resolved_at_s": "later", "severity": "warning"}],
         "alerts[0].resolved_at_s must be a number or null"),
        ("health", {"cluster": "bad"}, "health score out of range: 'bad'"),
        ("health", {"workers": {"w": "bad"}},
         "health score out of range: 'bad'"),
        ("health", {"workers": [["w", 50.0]]},
         "health.workers must be an object"),
        ("metric_windows", [{"idx": 0, "value": 1.0}],
         "metric_windows[0].series missing"),
        ("metric_windows", [{"idx": 0, "series": "x", "value": "big"}],
         "metric_windows[0].value must be a number or an object"),
    ])
    def test_postmortem_cli_refuses_a_bundle_out_of_schema(
            self, field, value, error, tmp_path):
        """A bundle out of schema exits 2 with INVALID lines, never a
        traceback: every field the renderer reads is in the schema."""
        from repro.cli import main
        assert validate_postmortem_bundle(GOOD_BUNDLE) == []
        render_bundle(GOOD_BUNDLE)
        bad = tmp_path / "postmortem-000-x.json"
        bad.write_text(json.dumps(dict(GOOD_BUNDLE, **{field: value})))
        out = io.StringIO()
        assert main(["postmortem", str(bad)], out=out) == 2
        assert f"INVALID: {error}" in out.getvalue()


class TestRenderedTail:
    @pytest.mark.parametrize("spans, shown", [
        (0, []), (2, ["b", "c"]), (3, ["a", "b", "c"]),
        (12, ["a", "b", "c"])])
    def test_spans_is_the_tail_length(self, spans, shown):
        """``repro postmortem --spans N`` prints the last N events of the
        slice: 0 prints none."""
        events = [{"ts": float(i), "dur": 0.0, "process": "p",
                   "thread": "t", "name": name}
                  for i, name in enumerate("abc")]
        text = render_bundle(dict(GOOD_BUNDLE, trace_slice=events),
                             spans=spans)
        assert [line.split()[-1] for line in text.splitlines()
                if " p/t " in line] == shown


@pytest.fixture(scope="module")
def monitored_chaos(tmp_path_factory):
    """scripts/ci.sh's monitored chaos smoke: (summary, bundles)."""
    from repro.cli import main
    out_dir = tmp_path_factory.mktemp("monitored_chaos")
    summary_path = out_dir / "summary.json"
    assert main(["monitor", "wordcount", "--mode", "gpu", "--workers", "4",
                 "--real", "4000", "--kill", "worker1@150",
                 "--gpu-fail", "worker0:0@10", "--backoff", "0.05",
                 "--expect-alert", "worker_unhealthy",
                 "--slo", "availability=0.5",
                 "--postmortem-dir", str(out_dir / "pm"),
                 "--summary-out", str(summary_path)],
                out=io.StringIO()) == 0
    return (json.loads(summary_path.read_text()),
            [doc for _name, doc in load_bundles(str(out_dir / "pm"))])


class TestBundleWindowsAreTheStore:
    def test_every_window_is_the_summarys_point(self, monitored_chaos):
        summary, bundles = monitored_chaos
        points = {render_key(s["name"], label_items(s["labels"])):
                  dict(map(tuple, s["points"])) for s in summary["series"]}
        assert len(bundles) == 5
        for doc in bundles:
            windows = doc["metric_windows"]
            assert 0 < len(windows) <= WINDOW_CAPACITY
            assert [w["idx"] for w in windows] \
                == sorted(w["idx"] for w in windows)
            for w in windows:
                assert not w["series"].startswith("health.")
                assert w["value"] == points[w["series"]][w["idx"]]
                assert w["t_end_s"] == (w["idx"] + 1) * summary["window_s"]

    def test_postmortem_derives_trending_series(self, monitored_chaos):
        _summary, bundles = monitored_chaos
        text = "\n".join(render_bundle(doc) for doc in bundles)
        assert "trending series:" in text
        assert ("    pipeline.backpressure.stall_s{op=hdfs-source("
                "/wordcount/input-4000000000)} slope +0.9049/win (up)"
                in text)
