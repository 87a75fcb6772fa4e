"""GMonitor acceptance tests (ISSUE 7 criteria).

Unit coverage of the telemetry plane (windows, SLOs, alerts, health,
summary/dashboard) plus the end-to-end contracts: a monitored run keeps
the simulated clock bit-identical to an unmonitored one across the
KMeans/WordCount matrix, and a chaos run produces a fired-and-resolved
``worker_unhealthy`` alert with a nonzero SLO burn rate.
"""

import io
import json

import pytest

from repro.common.errors import ConfigError
from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.flink.chaos import ChaosSchedule
from repro.obs.bus import Observability
from repro.obs.dashboard import render_dashboard
from repro.obs.monitor import (
    RETENTION_WINDOWS,
    AlertEngine,
    AlertRule,
    GMonitor,
    HealthScorer,
    SLObjective,
    SLOTracker,
    TimeSeriesStore,
    validate_monitor_summary,
)
from repro.workloads import KMeansWorkload, WordCountWorkload


class FakeEnv:
    """A stand-in simulated clock the monitor can read."""

    def __init__(self, now: float = 0.0):
        self.now = now


# ---------------------------------------------------------------------------
# Time-series store
# ---------------------------------------------------------------------------

class TestTimeSeriesStore:
    def test_counter_windows_accumulate_deltas(self):
        store = TimeSeriesStore()
        s = store.series("tasks", "counter", worker="w0")
        s.record(0, 2)
        s.record(0, 3)
        assert s.close(0) == 5
        assert s.close(1) is None          # untouched window
        s.record(2, 1)
        assert s.close(2) == 1
        assert list(s.points) == [(0, 5), (2, 1)]

    def test_gauge_window_keeps_last_value(self):
        store = TimeSeriesStore()
        s = store.series("depth", "gauge")
        s.record(0, 3)
        s.record(0, 7)
        assert s.close(0) == 7.0

    def test_histogram_window_percentiles(self):
        store = TimeSeriesStore()
        s = store.series("lat", "histogram")
        for v in (0.1, 0.2, 0.9):
            s.record(0, v)
        value = s.close(0)
        assert value["count"] == 3
        assert value["min"] == pytest.approx(0.1)
        assert value["max"] == pytest.approx(0.9)
        assert 0.1 <= value["p50"] <= 0.9

    def test_retention_bounds_points(self):
        store = TimeSeriesStore()
        s = store.series("c", "counter")
        for idx in range(RETENTION_WINDOWS + 3):
            s.record(idx, 1)
            s.close(idx)
        assert [i for i, _ in s.points] \
            == list(range(3, RETENTION_WINDOWS + 3))

    def test_kind_conflict_raises(self):
        store = TimeSeriesStore()
        store.series("x", "counter")
        with pytest.raises(ConfigError):
            store.series("x", "gauge")

    def test_label_named_kind_is_legal(self):
        # Registry metrics may label by "kind" (chaos.events does); the
        # items-based accessor must not collide with the signature.
        store = TimeSeriesStore()
        s = store.series_items("chaos.events", "counter",
                               (("kind", "worker-kill"),))
        assert s.key == "chaos.events{kind=worker-kill}"


# ---------------------------------------------------------------------------
# SLOs
# ---------------------------------------------------------------------------

class TestSLOTracker:
    def test_availability_burn_rate(self):
        tracker = SLOTracker(TimeSeriesStore())
        tracker.add(SLObjective(name="avail", kind="availability",
                                target=0.99))
        for i in range(100):
            tracker.observe_event(0, "avail", ok=(i != 0))
        # 1% bad against a 1% budget: burning exactly at the limit.
        assert tracker.burn_rate("avail") == pytest.approx(1.0)
        assert not tracker.violated("avail")
        tracker.observe_event(1, "avail", ok=False)
        assert tracker.burn_rate("avail") > 1.0
        assert tracker.violated("avail")

    def test_latency_tracking_without_target_never_violates(self):
        tracker = SLOTracker(TimeSeriesStore())
        tracker.add(SLObjective(name="lat", kind="latency", target=None))
        tracker.observe_latency(0, "lat", 1e9)
        assert not tracker.violated("lat")
        assert tracker.burn_rate("lat") == 0.0

    def test_latency_target_violation(self):
        tracker = SLOTracker(TimeSeriesStore())
        tracker.add(SLObjective(name="lat", kind="latency", target=0.5,
                                percentile=0.5))
        for _ in range(10):
            tracker.observe_latency(0, "lat", 2.0)
        assert tracker.violated("lat")

    def test_latency_percentile_is_an_observed_value(self):
        """Jobs of 12, 13 and 90 s meet a p50 <= 50 s objective: the median
        is the 13 s job, not a point inside a decade-wide bucket."""
        tracker = SLOTracker(TimeSeriesStore())
        tracker.add(SLObjective(name="lat", kind="latency", target=50.0,
                                percentile=0.5))
        for seconds in (12.0, 13.0, 90.0):
            tracker.observe_latency(0, "lat", seconds)
        assert not tracker.violated("lat")
        [row] = tracker.summary()
        assert row["violated"] is False
        assert row["observed"] == {"count": 3, "p50": 13.0, "p95": 90.0,
                                   "p99": 90.0}

    def test_availability_requires_target(self):
        with pytest.raises(ConfigError):
            SLObjective(name="a", kind="availability", target=None)

    @pytest.mark.parametrize("set_target", [
        lambda mon: mon.set_latency_target(-3.0),
        lambda mon: mon.set_latency_target(float("nan")),
        lambda mon: mon.set_latency_target(5.0, percentile=0.0),
        lambda mon: mon.set_latency_target(5.0, percentile=1.0),
        lambda mon: mon.set_availability_target(1.5),
        lambda mon: mon.set_availability_target(0.0),
    ])
    def test_the_target_setters_keep_the_objective_rules(self, set_target):
        mon = GMonitor(FakeEnv())
        before = mon.slo.summary()
        with pytest.raises(ConfigError):
            set_target(mon)
        assert mon.slo.summary() == before


# ---------------------------------------------------------------------------
# Alerts
# ---------------------------------------------------------------------------

def _evaluate(engine, store, idx, window_s=1.0):
    engine.evaluate(idx, (idx + 1) * window_s, store.close_window(idx))


class TestAlertEngine:
    def make(self, sustained=2, resolve_after=2):
        store = TimeSeriesStore()
        engine = AlertEngine()
        engine.add_rule(AlertRule(
            name="hot", series="temp", threshold=10.0,
            sustained=sustained, resolve_after=resolve_after,
            severity="critical"))
        return engine, store

    def test_sustained_firing_and_resolution(self):
        engine, store = self.make(sustained=2, resolve_after=2)
        s = store.series("temp", "counter")
        s.record(0, 20)
        _evaluate(engine, store, 0)
        assert engine.history == []        # one breach < sustained=2
        s.record(1, 30)
        _evaluate(engine, store, 1)
        assert len(engine.history) == 1
        alert = engine.history[0]
        assert alert.active and alert.fired_at_s == 2.0
        assert alert.peak == 30.0
        # Two quiet windows resolve it (counter reads 0 when untouched).
        _evaluate(engine, store, 2)
        assert alert.active
        _evaluate(engine, store, 3)
        assert not alert.active
        assert alert.resolved_at_s == 4.0

    def test_one_breach_below_sustained_never_fires(self):
        engine, store = self.make(sustained=3)
        s = store.series("temp", "counter")
        for idx in (0, 2, 4):              # never consecutive
            s.record(idx, 99)
            _evaluate(engine, store, idx)
            _evaluate(engine, store, idx + 1)
        assert engine.history == []

    def test_gauge_carries_forward_between_windows(self):
        store = TimeSeriesStore()
        engine = AlertEngine()
        engine.add_rule(AlertRule(name="deep", series="depth",
                                  threshold=5.0, sustained=2,
                                  resolve_after=2))
        s = store.series("depth", "gauge")
        s.record(0, 8)
        _evaluate(engine, store, 0)
        _evaluate(engine, store, 1)        # gauge still 8: second breach
        assert len(engine.history) == 1

    def test_label_scoping_restricts_matching(self):
        store = TimeSeriesStore()
        engine = AlertEngine()
        engine.add_rule(AlertRule(name="g0", series="x",
                                  labels=(("device", "gpu0"),),
                                  threshold=0.0, sustained=1))
        store.series("x", "counter", device="gpu1").record(0, 5)
        _evaluate(engine, store, 0)
        assert engine.history == []
        store.series("x", "counter", device="gpu0").record(1, 5)
        _evaluate(engine, store, 1)
        assert [a.labels for a in engine.history] == [{"device": "gpu0"}]


# ---------------------------------------------------------------------------
# Health
# ---------------------------------------------------------------------------

class TestHealthScorer:
    def test_penalties_and_down_worker(self):
        store = TimeSeriesStore()
        scorer = HealthScorer(store)
        scorer.register_worker("worker0")
        scorer.register_worker("worker1")
        engine = AlertEngine()
        engine.add_rule(AlertRule(name="bad", series="m",
                                  threshold=0.0, sustained=1,
                                  severity="critical"))
        store.series("m", "counter", worker="worker0").record(0, 1)
        _evaluate(engine, store, 0)
        scorer.worker_down("worker1")
        scorer.score_window(0, engine)
        summary = scorer.summary()
        assert summary["workers"]["worker0"] == 60.0   # 100 - 40 critical
        assert summary["workers"]["worker1"] == 0.0
        assert summary["cluster"] == 30.0

    def test_healthy_cluster_scores_100(self):
        scorer = HealthScorer(TimeSeriesStore())
        scorer.register_worker("w")
        scorer.score_window(0, AlertEngine())
        assert scorer.summary() == {
            "cluster": 100.0, "workers": {"w": 100.0}, "devices": {}}


# ---------------------------------------------------------------------------
# GMonitor windowing on a fake clock
# ---------------------------------------------------------------------------

class TestGMonitorWindows:
    def test_lazy_window_close_on_tick(self):
        env = FakeEnv()
        obs = Observability(env, monitoring=True)
        mon = obs.monitor
        obs.emit("heartbeat.missed", worker="w0")
        env.now = 2.5
        # Past the boundary: folds, closing windows 0 and 1.
        obs.emit("heartbeat.missed", worker="w0")
        series = mon.store.series("worker.heartbeat.missed", "counter",
                                  worker="w0")
        assert list(series.points) == [(0, 1)]
        env.now = 3.0
        mon.finalize()
        assert list(series.points) == [(0, 1), (2, 1)]

    def test_finalize_is_idempotent(self):
        env = FakeEnv(now=1.5)
        obs = Observability(env, monitoring=True)
        mon = obs.monitor
        obs.emit("heartbeat.missed", worker="w0")
        mon.finalize()
        n = mon._windows_closed
        mon.finalize()
        assert mon._windows_closed == n

    def test_default_rules_installed(self):
        mon = GMonitor(FakeEnv())
        names = {r.name for r in mon.alerts.rules}
        assert {"worker_unhealthy", "backpressure_stall"} <= names

    def test_register_device_installs_pcie_rule(self):
        mon = GMonitor(FakeEnv(), window_s=2.0)
        mon.register_device("w0-gpu0", pcie_bps=1e9)
        rule = [r for r in mon.alerts.rules if r.name == "pcie_saturated"]
        assert len(rule) == 1
        assert rule[0].threshold == pytest.approx(0.9 * 1e9 * 2.0)
        assert rule[0].labels == (("device", "w0-gpu0"),)

    def test_summary_validates_and_renders(self):
        env = FakeEnv()
        obs = Observability(env, monitoring=True)
        mon = obs.monitor
        mon.register_worker("worker0")
        obs.emit("place", reason="local", depth=3, worker="worker0")
        env.now = 0.4
        # job_latency and job.makespan_s: the job's duration.
        obs.emit("job", t0=0.0, t1=0.4, job="job0")
        # task_availability: one task done, one retried (task.failures).
        obs.emit("task", t0=0.0, t1=0.4, op="map", subtask=0, deploy_s=0.0)
        obs.emit("task.retry", op="map")
        env.now = 4.0
        obs.emit("heartbeat.missed", worker="worker0")
        mon.finalize()
        summary = mon.summary()
        assert validate_monitor_summary(summary) == []
        assert summary["windows_closed"] >= 4
        # worker_unhealthy fires on the missed heartbeat (sustained=1).
        assert any(a["rule"] == "worker_unhealthy"
                   for a in summary["alerts"])
        html = render_dashboard(summary)
        assert "<svg" in html and "worker_unhealthy" in html
        # Self-contained: no external scripts, stylesheets or links.
        assert "https://" not in html and "http://" not in html

    def test_validator_rejects_broken_documents(self):
        assert validate_monitor_summary([]) != []
        mon = GMonitor(FakeEnv())
        mon.finalize()
        good = mon.summary()
        bad = dict(good, schema="nope")
        assert any("schema" in e for e in validate_monitor_summary(bad))
        bad = dict(good, alerts=[{"rule": "r", "series": "s",
                                  "severity": "critical", "fired_at_s": 5.0,
                                  "resolved_at_s": 1.0}])
        assert any("resolved" in e for e in validate_monitor_summary(bad))


# ---------------------------------------------------------------------------
# End-to-end: zero-cost off, bit-identical clock, chaos alerting
# ---------------------------------------------------------------------------

def run_workload(workload_cls, kwargs, mode, monitoring,
                 schedule=None, flight_recorder_dir=None):
    config = ClusterConfig(
        n_workers=4, cpu=CPUSpec(cores=2), gpus_per_worker=("c2050",),
        flink=FlinkConfig(enable_monitoring=monitoring,
                          retry_backoff_base_s=0.05,
                          enable_flight_recorder=(
                              flight_recorder_dir is not None),
                          flight_recorder_dir=(
                              str(flight_recorder_dir)
                              if flight_recorder_dir else None)))
    cluster = GFlinkCluster(config)
    if schedule is not None:
        cluster.install_chaos(schedule)
    result = workload_cls(**kwargs).run(GFlinkSession(cluster), mode)
    return cluster, result


MATRIX = [
    (KMeansWorkload, dict(real_elements=3000, iterations=2), "cpu"),
    (KMeansWorkload, dict(real_elements=3000, iterations=2), "gpu"),
    (WordCountWorkload, dict(real_elements=4000), "cpu"),
    (WordCountWorkload, dict(real_elements=4000), "gpu"),
]


class TestZeroCostAndClockIdentity:
    @pytest.mark.parametrize("workload_cls,kwargs,mode", MATRIX,
                             ids=["kmeans-cpu", "kmeans-gpu",
                                  "wordcount-cpu", "wordcount-gpu"])
    def test_monitoring_keeps_clock_bit_identical(self, workload_cls,
                                                  kwargs, mode):
        on_cluster, on = run_workload(workload_cls, kwargs, mode, True)
        off_cluster, off = run_workload(workload_cls, kwargs, mode, False)
        assert on_cluster.env.now == off_cluster.env.now
        assert on.total_seconds == off.total_seconds
        assert on.iteration_seconds == off.iteration_seconds

    def test_disabled_monitor_is_null_and_empty(self):
        cluster, _ = run_workload(WordCountWorkload,
                                  dict(real_elements=4000), "gpu", False)
        assert cluster.obs.monitor is None
        assert not cluster.obs.active
        assert len(cluster.obs.registry) == 0

    def test_enabled_monitor_collects_series(self):
        cluster, _ = run_workload(WordCountWorkload,
                                  dict(real_elements=4000), "gpu", True)
        mon = cluster.obs.monitor
        mon.finalize()
        assert len(mon.store) > 0
        names = {s.name for s in mon.store.all_series()}
        assert "slo.events" in names
        assert "gpu.pcie.bytes" in names
        assert any(n.startswith("health.") for n in names)
        assert validate_monitor_summary(mon.summary()) == []


class TestDetectorDeterminism:
    def test_identical_runs_give_identical_summaries_and_trends(self):
        """The summary, and the dashboard that draws its trend arrows and
        changepoints, are equal run for run."""
        def one():
            schedule = ChaosSchedule()
            schedule.kill_worker("worker1", at=100.0)
            cluster, _ = run_workload(
                WordCountWorkload, dict(real_elements=4000), "gpu", True,
                schedule=schedule)
            mon = cluster.obs.monitor
            mon.finalize()
            return mon.summary()
        s1, s2 = one(), one()
        assert json.dumps(s1, sort_keys=True) == \
            json.dumps(s2, sort_keys=True)
        assert render_dashboard(s1) == render_dashboard(s2)


class TestFlightRecorderZeroCost:
    @pytest.mark.parametrize("workload_cls,kwargs,mode", MATRIX,
                             ids=["kmeans-cpu", "kmeans-gpu",
                                  "wordcount-cpu", "wordcount-gpu"])
    def test_recorder_keeps_clock_bit_identical(self, workload_cls,
                                                kwargs, mode, tmp_path):
        on_cluster, on = run_workload(
            workload_cls, kwargs, mode, True,
            flight_recorder_dir=tmp_path / "pm")
        off_cluster, off = run_workload(workload_cls, kwargs, mode, False)
        assert on_cluster.obs.recorder is not None
        assert on_cluster.env.now == off_cluster.env.now
        assert on.total_seconds == off.total_seconds
        assert on.iteration_seconds == off.iteration_seconds


class TestChaosMonitoring:
    @pytest.fixture(scope="class")
    def chaos_run(self):
        schedule = ChaosSchedule()
        # t=100 lands mid-task on worker1 for this workload/size: the kill
        # both strands running subtasks (retries -> SLO burn) and stops
        # heartbeats (worker_unhealthy).
        schedule.kill_worker("worker1", at=100.0)
        cluster, result = run_workload(
            WordCountWorkload, dict(real_elements=4000), "gpu", True,
            schedule=schedule)
        mon = cluster.obs.monitor
        mon.finalize()
        return cluster, mon.summary()

    def test_worker_unhealthy_fires_and_resolves(self, chaos_run):
        _, summary = chaos_run
        fired = [a for a in summary["alerts"]
                 if a["rule"] == "worker_unhealthy"]
        assert fired, "worker kill did not raise worker_unhealthy"
        assert any(a["resolved_at_s"] is not None for a in fired)

    def test_burn_rate_nonzero_under_retries(self, chaos_run):
        _, summary = chaos_run
        avail = [s for s in summary["slos"]
                 if s["name"] == "task_availability"][0]
        assert avail["bad"] > 0
        assert avail["burn_rate"] > 0.0

    def test_dead_worker_scores_zero(self, chaos_run):
        _, summary = chaos_run
        health = summary["health"]
        assert health["workers"]["worker1"] == 0.0
        assert health["cluster"] < 100.0

    def test_summary_validates_and_alert_instants_traced(self, chaos_run):
        cluster, summary = chaos_run
        assert validate_monitor_summary(summary) == []
        # Alert lifecycle rides the trace when tracing is enabled; with
        # tracing off the tracer records nothing, so just re-check the
        # summary carries the full lifecycle.
        for a in summary["alerts"]:
            assert a["fired_at_s"] >= 0.0


class TestMonitorCLI:
    def test_monitor_command_gates_on_expected_alert(self, tmp_path):
        from repro.cli import main
        out = io.StringIO()
        summary_path = tmp_path / "summary.json"
        dash_path = tmp_path / "dash.html"
        code = main(["monitor", "wordcount", "--mode", "gpu",
                     "--workers", "4", "--real", "4000",
                     "--kill", "worker1@150", "--backoff", "0.05",
                     "--expect-alert", "worker_unhealthy",
                     "--slo", "availability=0.5",
                     "--summary-out", str(summary_path),
                     "--dashboard-out", str(dash_path)], out=out)
        text = out.getvalue()
        assert code == 0, text
        doc = json.loads(summary_path.read_text())
        assert validate_monitor_summary(doc) == []
        assert dash_path.read_text().startswith("<!DOCTYPE html>")

    def test_monitor_command_fails_on_absent_alert(self, tmp_path):
        from repro.cli import main
        out = io.StringIO()
        code = main(["monitor", "wordcount", "--mode", "gpu",
                     "--workers", "2", "--real", "4000",
                     "--kill", "worker1@1e9",   # never triggers
                     "--expect-alert", "worker_unhealthy"], out=out)
        assert code == 1
        assert "never fired" in out.getvalue()
