"""The instrumentation bus: one emission path, sinks derived from FACTS.

* a fact's registry and monitor derivations do not depend on whether the
  tracer records;
* the table covers the source and the source covers the table;
* an unobserved job's calls into ``repro.obs`` do not grow with its blocks;
* a stall interrupted by a worker kill is timed by its span, and every
  total agrees with it;
* one fact, one count: no series key is derived into both sinks (a
  registry derivation also records into the monitor series of its key),
  and the windows of every registry counter a fact derives sum to it.
"""

import ast
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro
from repro.common.errors import ConfigError
from repro.common.simclock import Environment
from repro.core import GFlinkCluster, GFlinkSession
from repro.core.channels import CommMode
from repro.flink import (ClusterConfig, CPUSpec, FailureInjector, FlinkConfig,
                         FlinkSession)
from repro.flink.autoscaler import Autoscaler, AutoscalerPolicy
from repro.flink.chaos import ChaosSchedule
from repro.gpu import KernelSpec
from repro.obs import OFF, Observability
from repro.obs.export import collect_cluster
from repro.obs.facts import FACTS
from repro.obs.validate import cross_check
from repro.workloads import (LinearRegressionWorkload, PageRankWorkload,
                             WordCountWorkload)

SRC = Path(repro.__file__).resolve().parent


def pagerank_gpu(**flink):
    cluster = GFlinkCluster(ClusterConfig(
        n_workers=2, cpu=CPUSpec(cores=2), gpus_per_worker=("c2050", "c2050"),
        flink=FlinkConfig(**flink)))
    PageRankWorkload(nominal_pages=1e5, real_pages=500,
                     iterations=3).run(GFlinkSession(cluster), "gpu")
    return cluster


def wordcount_gpu(schedule=None):
    cluster = GFlinkCluster(ClusterConfig(
        n_workers=4, cpu=CPUSpec(cores=2), gpus_per_worker=("c2050",),
        flink=FlinkConfig(enable_tracing=True, enable_monitoring=True,
                          retry_backoff_base_s=0.05)))
    if schedule is not None:
        cluster.install_chaos(schedule)
    result = WordCountWorkload(real_elements=4000, nominal_elements=2e8).run(
        GFlinkSession(cluster), "gpu")
    return cluster, result


class TestOneSwitch:
    def test_off_bus_records_nothing_and_hands_out_the_null_span(self):
        OFF.emit("worker.dead", "master", "failures", worker="w0")
        with OFF.span("job", "master", "jobmanager", job="j") as sp:
            sp.set(anything=1)
        assert not OFF.active and OFF.monitor is None
        assert len(OFF.tracer) == 0 and len(OFF.registry) == 0

    def test_unknown_fact_raises(self):
        obs = Observability(mock.Mock(now=0.0), tracing=True)
        with pytest.raises(ConfigError, match="unknown fact 'no.such.fact'"):
            obs.emit("no.such.fact")
        with pytest.raises(ConfigError, match="unknown fact"):
            obs.span("no.such.fact", "p", "t")

    def test_span_emits_on_an_exception_with_the_error(self):
        env = mock.Mock(now=1.0)
        obs = Observability(env, tracing=True)
        with pytest.raises(KeyError):
            with obs.span("hdfs.read", "worker0", "hdfs", nbytes=8, block=0,
                          local=True):
                env.now = 3.0
                raise KeyError("gone")
        [span] = obs.tracer.spans(name="hdfs.read")
        assert (span.ts, span.dur, span.args["error"]) == (1.0, 2.0,
                                                           "KeyError")
        # The read did not happen: its counter is derived `unless` error.
        assert "hdfs.reads{locality=local}" not in obs.registry.snapshot()

    def test_t0_without_t1_is_the_instant_t0(self):
        obs = Observability(mock.Mock(now=5.0), tracing=True)
        obs.emit("h2d", "gpu0", "copy:h2d", 1.0, nbytes=5)
        obs.emit("cache.probe", "gpu0", "cache", 2.0, outcome="hit")
        [span] = obs.tracer.spans(name="h2d")
        [instant] = [e for e in obs.tracer.events
                     if e.ph == "i" and e.name == "cache.probe"]
        assert (span.ts, span.dur, instant.ts, instant.dur) \
            == (1.0, 0.0, 2.0, 0.0)
        assert obs.registry.snapshot()["gpu.pcie.h2d.bytes{device=gpu0}"] \
            == 5

    def test_t1_before_t0_is_refused(self):
        obs = Observability(mock.Mock(now=5.0), tracing=True,
                            monitoring=True)
        with pytest.raises(ValueError, match="t1 must not precede t0"):
            obs.emit("backpressure", "w0", "pipeline", 2.0, 1.0, op="o")
        assert len(obs.tracer) == 0 and len(obs.registry) == 0

    @pytest.mark.parametrize("t0, t1", [(float("nan"), None),
                                        (1.0, float("nan"))],
                             ids=["t0", "t1"])
    def test_nan_times_are_refused(self, t0, t1):
        obs = Observability(mock.Mock(now=5.0), tracing=True)
        with pytest.raises(ValueError, match="NaN"):
            obs.emit("h2d", "gpu0", "copy:h2d", t0, t1, nbytes=5)
        assert len(obs.tracer) == 0


class TestSinksDoNotDependOnTheTracer:
    """(a) same job traced+monitored and monitoring-only."""

    def test_registry_and_monitor_are_equal(self):
        both = pagerank_gpu(enable_tracing=True, enable_monitoring=True)
        only = pagerank_gpu(enable_monitoring=True)
        assert len(both.obs.tracer) > 0 and len(only.obs.tracer) == 0
        assert both.obs.registry.snapshot() == only.obs.registry.snapshot()
        for cluster in (both, only):
            cluster.obs.monitor.finalize()
        a, b = both.obs.monitor.summary(), only.obs.monitor.summary()
        # Alert instants land on a trace lane; nothing else of the monitor
        # may know whether the tracer records.
        for key in ("series", "alerts", "slos", "health", "windows_closed"):
            assert a[key] == b[key], key


def emitted_facts():
    """{fact: [file:line, ...]} for every obs.emit / obs.span in src/ (the
    alert facts are stated by obs/monitor.py)."""
    found = {}
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("emit", "span")
                    and node.args):
                continue
            first = node.args[0]
            names = ([first.value] if isinstance(first, ast.Constant)
                     else [first.body.value, first.orelse.value]
                     if isinstance(first, ast.IfExp) else None)
            where = f"{path.relative_to(SRC)}:{node.lineno}"
            assert names and all(isinstance(n, str) for n in names), (
                f"{where}: the fact of an emit/span must be a literal")
            for name in names:
                found.setdefault(name, []).append(where)
    return found


class TestTableCoverage:
    """(b) every emit names a row, every row is emitted by some job."""

    def test_every_emission_in_src_names_a_row(self):
        found = emitted_facts()
        assert len(found) > 30
        unknown = {f: w for f, w in found.items() if f not in FACTS}
        assert not unknown

    def test_every_row_is_emitted_somewhere_in_src(self):
        assert set(FACTS) - set(emitted_facts()) == set()

    def test_every_row_is_emitted_by_some_job_of_the_suite(self):
        """A handful of small jobs (``run_the_fact_zoo``) reach every row."""
        seen = set()
        real_emit, real_span = Observability.emit, Observability.span

        def emit(self, fact, *args, **kwargs):
            seen.add(fact)
            return real_emit(self, fact, *args, **kwargs)

        def span(self, fact, *args, **kwargs):
            seen.add(fact)
            return real_span(self, fact, *args, **kwargs)

        with mock.patch.object(Observability, "emit", emit), \
                mock.patch.object(Observability, "span", span):
            run_the_fact_zoo()
        assert set(FACTS) - seen == set()


OBSERVED = dict(enable_tracing=True, enable_monitoring=True,
                retry_backoff_base_s=0.05)


def run_the_fact_zoo():
    """Small jobs that between them state every fact of the table."""
    # Iterative GPU job with the cache on: the whole GStream pipeline.
    pagerank_gpu(**OBSERVED)
    # Block-vectorized CPU operators.
    cluster = GFlinkCluster(ClusterConfig(
        n_workers=2, cpu=CPUSpec(cores=2), flink=FlinkConfig(**OBSERVED)))
    WordCountWorkload(real_elements=2000, nominal_elements=1e7,
                      vectorized=True).run(GFlinkSession(cluster), "cpu")
    # A streaming GPU job under a device fault, a join, a drain, a kill, a
    # leave and a leave of what already left.
    quiet, _ = wordcount_gpu()
    t = quiet.env.now
    wordcount_gpu(ChaosSchedule()
                  .fail_gpu("worker0", 0, at=0.0)
                  .join_worker(at=0.3 * t)
                  .drain_worker("worker2", at=0.4 * t)
                  .kill_worker("worker1", at=0.6 * t)
                  .leave_worker("worker3", at=0.8 * t)
                  .leave_worker("worker3", at=0.9 * t))
    # A persisted dataset loses a worker between two jobs (recovery), a
    # joiner takes its share of it (rebalance), the autoscaler looks on.
    cluster = GFlinkCluster(ClusterConfig(
        n_workers=3, cpu=CPUSpec(cores=2), flink=FlinkConfig(**OBSERVED)))
    session = GFlinkSession(
        cluster, failure_injector=FailureInjector(plan={("stage1", 0): 1}))
    data = session.from_collection(list(range(12)), parallelism=6) \
        .map(lambda x: x + 1, name="stage1").persist()
    data.collect()
    cluster.fail_worker(cluster.materialized[data.op.uid][0].worker)
    data.map(lambda x: x * 10, name="stage2").collect()
    cluster.add_worker()
    cluster.env.run()
    scaler = Autoscaler(cluster, AutoscalerPolicy(cooldown_s=0.0))
    scaler._evaluate()
    scaler._maybe_add_worker(pressure=2.0)
    # Every device blacklisted: GPU operators fall back to the CPU.
    double_on_one_gpu(faults=ChaosSchedule().fail_gpu("worker0", 0, at=0.0))


def double_on_one_gpu(faults=None):
    cluster = GFlinkCluster(ClusterConfig(
        n_workers=1, cpu=CPUSpec(cores=2), gpus_per_worker=("c2050",),
        flink=FlinkConfig(**OBSERVED)))
    if faults is not None:
        cluster.install_chaos(faults)
    session = GFlinkSession(cluster)
    session.register_kernel(KernelSpec(
        "double", lambda i, p: {"out": i["in"] * 2.0},
        flops_per_element=2.0, efficiency=0.5))
    session.from_collection(
        np.arange(2000, dtype=np.float64), element_nbytes=8.0, scale=1e3,
        parallelism=1).gpu_map_partition("double").collect()
    return cluster


class TestLateCopyPaths:
    """Under JNI_HEAP and RPC a D2H copy waits a premium after its engine
    window; windows close during that wait.  The copy is stated at its
    own end, so a monitored job over many windows completes."""

    @pytest.mark.parametrize("mode", [CommMode.JNI_HEAP, CommMode.RPC])
    def test_a_monitored_job_over_many_windows_completes(self, mode):
        cluster = GFlinkCluster(ClusterConfig(
            n_workers=1, cpu=CPUSpec(cores=2), gpus_per_worker=("c2050",),
            flink=FlinkConfig(enable_monitoring=True,
                              monitor_window_s=0.002)))
        session = GFlinkSession(cluster)
        session.register_kernel(KernelSpec(
            "double", lambda i, p: {"out": i["in"] * 2.0},
            flops_per_element=2.0, efficiency=0.5))
        out = session.from_collection(
            np.arange(2000, dtype=np.float64), element_nbytes=8.0,
            scale=1e4, parallelism=1).gpu_map_partition(
                "double", comm_mode=mode).collect()
        np.testing.assert_array_equal(np.sort(out.value),
                                      np.arange(2000) * 2.0)
        monitor = cluster.obs.monitor
        monitor.finalize()
        assert monitor.summary()["windows_closed"] > 20
        assert window_total(monitor, "gpu.pcie.bytes") == \
            cluster.obs.registry.sum_values("gpu.pcie.h2d.bytes") + \
            cluster.obs.registry.sum_values("gpu.pcie.d2h.bytes")


class TestDisabledCostDoesNotGrowWithBlocks:
    """(c) wall-clock-free: calls into repro.obs on an unobserved job."""

    @staticmethod
    def obs_calls(nominal):
        cluster = GFlinkCluster(ClusterConfig(
            n_workers=2, cpu=CPUSpec(cores=2), gpus_per_worker=("c2050",)))
        workload = LinearRegressionWorkload(
            nominal_elements=nominal, real_elements=4000, iterations=4,
            seed=20160816)
        obs_dir = str(SRC / "obs")
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename.startswith(
                    obs_dir):
                calls += 1

        sys.setprofile(count)
        try:
            workload.run(GFlinkSession(cluster), "gpu")
        finally:
            sys.setprofile(None)
        blocks = sum(d.kernels_launched
                     for gm in cluster.gpu_managers() for d in gm.devices)
        return blocks, calls

    def test_calls_are_per_work_not_per_block(self):
        (b0, c0), (b1, c1) = self.obs_calls(10e6), self.obs_calls(20e6)
        assert (b0, b1) == (260, 500)
        assert c0 == c1 > 0


@pytest.fixture(scope="module")
def killed_mid_stall():
    """(cluster, result, kill time): a worker dies half way through its
    longest backpressure stall of the fault-free run."""
    quiet, _ = wordcount_gpu()
    names, _threads = quiet.obs.tracer.lane_names()
    stall = max(quiet.obs.tracer.spans(name="backpressure"),
                key=lambda e: e.dur)
    kill_at = stall.ts + stall.dur / 2
    cluster, result = wordcount_gpu(
        ChaosSchedule().kill_worker(names[stall.pid], at=kill_at))
    return cluster, result, kill_at


class TestInterruptedStall:
    """Satellite 1: a worker kill mid-stall keeps span and totals equal."""

    def test_span_seconds_equal_counter_seconds(self, killed_mid_stall):
        cluster, result, kill_at = killed_mid_stall
        spans = cluster.obs.tracer.spans(name="backpressure")
        cut = [e for e in spans if (e.args or {}).get("error")]
        assert cut and all(e.ts <= kill_at == e.ts + e.dur for e in cut)
        assert sum(e.dur for e in cut) > 0

        span_s = sum(e.dur for e in spans)
        job_s = sum(m.pipeline_backpressure_s for m in result.job_metrics)
        cluster.obs.monitor.finalize()
        series_s = sum(
            value for s in cluster.obs.monitor.store.family(
                "pipeline.backpressure.stall_s") for _idx, value in s.points)
        assert job_s == pytest.approx(span_s, abs=1e-9)
        assert series_s == pytest.approx(span_s, abs=1e-9)
        assert cluster.obs.registry.sum_values(
            "pipeline.backpressure.stalls") == len(spans)


def exported(cluster):
    """(trace, metrics) as they come back from the exported JSON files."""
    collect_cluster(cluster.obs.registry, cluster)
    return (json.loads(json.dumps(cluster.obs.tracer.to_chrome())),
            json.loads(cluster.obs.registry.to_json()))


class TestCrossCheck:
    def test_holds_on_a_chaos_run_and_catches_a_drifted_counter(
            self, killed_mid_stall):
        trace, metrics = exported(killed_mid_stall[0])
        assert cross_check(trace, metrics) == []
        retries = next(k for k in metrics if k.startswith("task.retries"))
        metrics[retries] += 1
        [error] = cross_check(trace, metrics)
        assert retries in error


def window_total(monitor, family):
    return sum(value for series in monitor.store.family(family)
               for _idx, value in series.points)


@pytest.fixture(scope="module")
def monitored_chaos():
    """The ci.sh monitored chaos run: WordCount-GPU on 4 workers, a GPU
    fault at 10 s and a worker kill at 150 s."""
    schedule = ChaosSchedule()
    schedule.fail_gpu("worker0", 0, at=10.0)
    schedule.kill_worker("worker1", at=150.0)
    cluster = GFlinkCluster(ClusterConfig(
        n_workers=4, cpu=CPUSpec(), gpus_per_worker=("c2050", "c2050"),
        flink=FlinkConfig(enable_tracing=True, enable_monitoring=True,
                          retry_backoff_base_s=0.05)))
    cluster.install_chaos(schedule)
    WordCountWorkload(nominal_elements=4e9, real_elements=4000).run(
        GFlinkSession(cluster), "gpu")
    collect_cluster(cluster.obs.registry, cluster)
    cluster.obs.monitor.finalize()
    return cluster


class TestOneFactOneCount:
    """A registry derivation also records into the monitor's store, in the
    window of its fact's instant, under the metric's own ``(name, labels)``
    key.  A monitor derivation under that key would count the fact a second
    time."""

    def test_no_series_key_is_derived_into_both_sinks(self):
        keys = {sink: {(d.name, tuple(label for label, _src, _map in d.labels))
                       for row in FACTS.values() for d in row.derive
                       if d.sink == sink
                       and d.kind in ("counter", "gauge", "histogram")}
                for sink in ("registry", "monitor")}
        assert len(keys["registry"]) > 30 and len(keys["monitor"]) > 10
        assert keys["registry"] & keys["monitor"] == set()

    def test_one_decision_reads_one_in_its_window(self):
        obs = Observability(Environment(), monitoring=True)
        obs.emit("autoscale", "master", "autoscaler", action="add_worker")
        obs.monitor.finalize()
        (series,) = obs.monitor.store.family("autoscale.decisions")
        assert list(series.points) == [(0, 1.0)]
        assert obs.registry.sum_values("autoscale.decisions") == 1.0

    def test_windows_sum_to_the_registry_on_an_autoscaled_churn_run(self):
        """A persisted dataset, then a job whose waves queue: the autoscaler
        adds a worker and the joiner is handed its share of the dataset."""
        cluster = GFlinkCluster(ClusterConfig(
            n_workers=2, cpu=CPUSpec(cores=2),
            flink=FlinkConfig(enable_monitoring=True)))
        session = FlinkSession(cluster)
        data = session.from_collection(
            list(range(160)), parallelism=16, scale=1e5).map(
                lambda x: x * 2, name="double").persist()
        data.collect()
        scaler = Autoscaler(cluster, AutoscalerPolicy(
            interval_s=0.5, cooldown_s=0.5, max_workers=4))
        scaler.start()
        data.map(lambda x: x - 1, name="dec").collect()
        scaler.stop()
        cluster.env.run()             # finish the in-flight rebalance
        cluster.obs.monitor.finalize()
        for family in ("autoscale.decisions", "rebalance.partitions"):
            counted = cluster.obs.registry.sum_values(family)
            assert counted > 0
            assert window_total(cluster.obs.monitor, family) == counted

    def test_every_derived_counter_is_its_windows_summed(
            self, monitored_chaos):
        registry, store = monitored_chaos.obs.registry, \
            monitored_chaos.obs.monitor.store
        derived = {d.name for row in FACTS.values() for d in row.derive
                   if d.sink == "registry"}
        # The monitor holds what facts derive, never a sample of the
        # registry: the export-time gauges have no series.
        assert {s.name for s in store.all_series()
                if (s.name, s.labels) in registry._metrics} <= derived
        counters = [m for m in registry._metrics.values()
                    if m.kind == "counter" and m.name in derived]
        assert len({m.name for m in counters}) >= 18
        for metric in counters:
            series = store._series.get((metric.name, metric.labels))
            points = [v for _i, v in series.points] if series else []
            if all(float(v).is_integer() for v in points + [metric.value]):
                assert sum(points) == metric.value, metric.name
            else:
                assert sum(points) == pytest.approx(metric.value,
                                                    rel=1e-12), metric.name

    def test_a_fault_lands_in_the_window_of_its_instant(self,
                                                        monitored_chaos):
        chaos = {dict(s.labels)["kind"]: list(s.points) for s in
                 monitored_chaos.obs.monitor.store.family("chaos.events")}
        assert chaos == {"gpu-ecc": [(10, 1.0)], "worker-kill": [(150, 1.0)]}
