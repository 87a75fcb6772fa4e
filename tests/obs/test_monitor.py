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
from repro.obs.dashboard import render_dashboard
from repro.obs.monitor import (
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
        store = TimeSeriesStore(retention=3)
        s = store.series("c", "counter")
        for idx in range(6):
            s.record(idx, 1)
            s.close(idx)
        assert [i for i, _ in s.points] == [3, 4, 5]

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
            name="hot", series="temp", predicate="above", threshold=10.0,
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
                                  predicate="above", threshold=5.0,
                                  sustained=2, resolve_after=2))
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
                                  predicate="above", threshold=0.0,
                                  sustained=1))
        store.series("x", "counter", device="gpu1").record(0, 5)
        _evaluate(engine, store, 0)
        assert engine.history == []
        store.series("x", "counter", device="gpu0").record(1, 5)
        _evaluate(engine, store, 1)
        assert [a.labels for a in engine.history] == [{"device": "gpu0"}]

    def test_rate_above_predicate(self):
        store = TimeSeriesStore()
        engine = AlertEngine()
        engine.add_rule(AlertRule(name="spike", series="x",
                                  predicate="rate_above", threshold=10.0,
                                  sustained=1))
        s = store.series("x", "gauge")
        s.record(0, 5)
        _evaluate(engine, store, 0)
        s.record(1, 6)
        _evaluate(engine, store, 1)        # +1 — no spike
        assert engine.history == []
        s.record(2, 50)
        _evaluate(engine, store, 2)        # +44 — spike
        assert len(engine.history) == 1


class TestTrendRules:
    def make(self, predicate, threshold, window=6):
        store = TimeSeriesStore()
        engine = AlertEngine()
        engine.add_rule(AlertRule(name="trend", series="x",
                                  predicate=predicate, threshold=threshold,
                                  sustained=1, trend_window=window))
        return engine, store

    def test_trend_above_fires_on_ramp(self):
        engine, store = self.make("trend_above", 0.5)
        s = store.series("x", "gauge")
        for idx, v in enumerate([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]):
            s.record(idx, v)
            _evaluate(engine, store, idx)
        assert len(engine.history) == 1
        # The alert's peak is the breaching slope, not the raw value.
        assert engine.history[0].peak == pytest.approx(1.0)

    def test_flat_series_never_fires(self):
        engine, store = self.make("trend_above", 0.5)
        s = store.series("x", "gauge")
        for idx in range(8):
            s.record(idx, 5.0)
            _evaluate(engine, store, idx)
        assert engine.history == []

    def test_trend_below_fires_on_decay(self):
        engine, store = self.make("trend_below", -0.5)
        s = store.series("x", "gauge")
        for idx, v in enumerate([9.0, 8.0, 7.0, 6.0, 5.0, 4.0]):
            s.record(idx, v)
            _evaluate(engine, store, idx)
        assert len(engine.history) == 1

    def test_needs_half_window_before_firing(self):
        engine, store = self.make("trend_above", 0.0, window=8)
        s = store.series("x", "gauge")
        for idx, v in enumerate([1.0, 5.0, 9.0]):
            s.record(idx, v)
            _evaluate(engine, store, idx)
        assert engine.history == []        # 3 samples < trend_window//2 = 4

    def test_trend_rule_keeps_gauge_carry_forward(self):
        # The engine's carried window value must stay the raw gauge
        # reading, not the slope the rule reported as the alert value.
        engine, store = self.make("trend_above", 100.0)
        s = store.series("x", "gauge")
        s.record(0, 7.0)
        _evaluate(engine, store, 0)
        state = next(iter(engine._states.values()))
        assert state.last_value == 7.0     # raw, not slope (0.0)

    def test_bad_trend_window_rejected(self):
        with pytest.raises(ConfigError):
            AlertRule(name="t", series="x", predicate="trend_above",
                      trend_window=1)


class TestTrendsAPI:
    def test_trends_snapshot_shape_and_direction(self):
        env = FakeEnv()
        mon = GMonitor(env, window_s=1.0)
        for i in range(8):
            env.now = i + 0.5
            mon.gauge("depth", float(i))
        env.now = 8.0
        mon.finalize()
        snaps = mon.trends("depth")
        assert len(snaps) == 1
        snap = next(iter(snaps.values()))
        assert snap["name"] == "depth"
        assert snap["n"] == 8
        assert snap["slope"] == pytest.approx(1.0)
        assert snap["direction"] == "up"
        assert snap["last"] == pytest.approx(7.0)

    def test_trends_filter_by_name(self):
        env = FakeEnv()
        mon = GMonitor(env, window_s=1.0)
        env.now = 0.5
        mon.gauge("a", 1.0)
        mon.gauge("b", 2.0)
        env.now = 1.0
        mon.finalize()
        assert {s["name"] for s in mon.trends().values()} >= {"a", "b"}
        assert all(s["name"] == "a" for s in mon.trends("a").values())


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
                                  predicate="above", threshold=0.0,
                                  sustained=1, severity="critical"))
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
        mon = GMonitor(env, window_s=1.0)
        mon.count("x", 1)
        env.now = 2.5
        mon.count("x", 1)                  # ticks: closes windows 0 and 1
        series = mon.store.series("x", "counter")
        assert list(series.points) == [(0, 1)]
        env.now = 3.0
        mon.finalize()
        assert list(series.points) == [(0, 1), (2, 1)]

    def test_finalize_is_idempotent(self):
        env = FakeEnv(now=1.5)
        mon = GMonitor(env, window_s=1.0)
        mon.count("x", 1)
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
        mon = GMonitor(env, window_s=1.0)
        mon.register_worker("worker0")
        mon.count("tasks", 3, worker="worker0")
        mon.feed("slo.latency", "job_latency", 0.4)
        mon.observe("job.makespan_s", 0.4, job="job0")
        mon.feed("slo.event", "task_availability", True)
        mon.feed("slo.event", "task_availability", False)
        mon.count("task.failures", op="map")
        env.now = 4.0
        mon.count("worker.heartbeat.missed", worker="worker0")
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
        def one():
            schedule = ChaosSchedule()
            schedule.kill_worker("worker1", at=100.0)
            cluster, _ = run_workload(
                WordCountWorkload, dict(real_elements=4000), "gpu", True,
                schedule=schedule)
            mon = cluster.obs.monitor
            mon.finalize()
            return mon.summary(), mon.trends()
        s1, t1 = one()
        s2, t2 = one()
        assert json.dumps(s1, sort_keys=True) == \
            json.dumps(s2, sort_keys=True)
        assert t1 == t2


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
