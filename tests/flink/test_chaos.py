"""Failure domains end-to-end: chaos schedules, detection, recovery.

Covers the chaos subsystem's contracts:

* exponential back-off with deterministic jitter (``backoff_delay``);
* GPU device blacklisting at the fault threshold + cache invalidation;
* lineage recovery recomputes exactly the lost partitions — of a persisted
  dataset and of one whose wave had only just finished (finals imply
  materialized);
* a worker killed mid-job leaves the job result identical;
* with every device blacklisted, GPU operators degrade to CPU execution
  and still produce identical results — and a kernel with no ``"out"``
  fails with the same ``KernelError`` as on a healthy device.
"""

import numpy as np
import pytest

from repro.common.errors import DeviceFaultError, KernelError
from repro.common.simclock import Environment
from repro.core import GFlinkCluster, GFlinkSession
from repro.core.gpumanager import GPUManager, GPUManagerConfig
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig, FlinkSession
from repro.flink.chaos import (
    ChaosSchedule,
    FaultKind,
    backoff_delay,
    values_equal,
)
from repro.flink.jobmanager import JobManager
from repro.flink.pipeline import PipelinedExecutor
from repro.gpu import KernelSpec
from repro.gpu.kernel import KernelRegistry
from repro.workloads import PageRankWorkload, PointAddWorkload
from tests.flink.conftest import assert_ports_free, at_depth, make_cluster


class TestBackoff:
    def test_doubles_and_caps(self):
        flink = FlinkConfig(retry_backoff_base_s=1.0,
                            retry_backoff_max_s=4.0,
                            retry_backoff_jitter=0.0)
        delays = [backoff_delay(flink, k, "op", 0) for k in range(1, 6)]
        assert delays == [1.0, 2.0, 4.0, 4.0, 4.0]

    def test_jitter_bounds_and_determinism(self):
        flink = FlinkConfig(retry_backoff_base_s=1.0,
                            retry_backoff_max_s=8.0,
                            retry_backoff_jitter=0.25)
        first = [backoff_delay(flink, k, "op", 3) for k in range(1, 6)]
        again = [backoff_delay(flink, k, "op", 3) for k in range(1, 6)]
        assert first == again  # same identity -> replayed delays
        for attempt, delay in enumerate(first, start=1):
            base = min(2.0 ** (attempt - 1), 8.0)
            assert base <= delay <= base * 1.25
        # A different subtask identity de-synchronizes the sequence.
        other = [backoff_delay(flink, k, "op", 4) for k in range(1, 6)]
        assert other != first

    def test_disabled_by_default(self):
        # Base 0 (the default) means immediate retries: pre-chaos behavior.
        assert backoff_delay(FlinkConfig(), 3, "op", 0) == 0.0


def make_gpumanager(n_devices=1, **config_overrides):
    config = GPUManagerConfig(**config_overrides)
    return GPUManager(Environment(), "w0", ("c2050",) * n_devices,
                      KernelRegistry(), config)


class TestBlacklist:
    def test_transient_faults_blacklist_at_threshold(self):
        gm = make_gpumanager(blacklist_threshold=3)
        for _ in range(2):
            gm.record_device_failure(
                0, DeviceFaultError("gpu-oom", "w0-gpu0"))
            assert 0 not in gm.blacklisted
        gm.record_device_failure(0, DeviceFaultError("gpu-oom", "w0-gpu0"))
        assert 0 in gm.blacklisted
        assert not gm.gpu_available()

    def test_non_device_faults_do_not_count(self):
        gm = make_gpumanager(blacklist_threshold=1)
        gm.record_device_failure(0, KernelError("bad kernel"))
        gm.record_device_failure(0, ValueError("not hardware"))
        assert gm.device_failures[0] == 0
        assert gm.gpu_available()

    def test_ecc_blacklists_immediately_and_drops_cache(self):
        gm = make_gpumanager(n_devices=2)
        gm.gmm.region("app", 0)
        gm.gmm.region("app", 1)
        gm.inject_device_fault(0, FaultKind.GPU_ECC)
        assert gm.blacklisted == {0}
        assert not gm.gmm.has_region("app", 0)  # cache invalidated
        assert gm.gmm.has_region("app", 1)      # the healthy device keeps its
        assert gm.healthy_device_indices() == [1]

    def test_unknown_device_rejected(self):
        gm = make_gpumanager()
        with pytest.raises(ValueError, match="no GPU 7"):
            gm.inject_device_fault(7, "gpu-oom")


class TestChaosSchedule:
    def test_random_is_reproducible(self):
        kw = dict(duration_s=60.0,
                  workers=[f"worker{i}" for i in range(4)],
                  gpus_per_worker=2, worker_kill_rate=0.02,
                  gpu_fault_rate=0.05, pcie_fault_rate=0.05)
        a = ChaosSchedule.random(seed=9, **kw)
        b = ChaosSchedule.random(seed=9, **kw)
        assert a.events == b.events
        assert a.events != ChaosSchedule.random(seed=10, **kw).events

    def test_random_spares_one_worker(self):
        schedule = ChaosSchedule.random(
            seed=1, duration_s=at_depth(1e4, 1e6), workers=["w0", "w1", "w2"],
            worker_kill_rate=10.0)
        victims = {e.worker for e in schedule.events
                   if e.kind is FaultKind.WORKER_KILL}
        assert len(victims) == 2  # one survivor to recover onto

    def test_events_sorted_by_time(self):
        schedule = (ChaosSchedule()
                    .kill_worker("w1", at=30.0)
                    .fail_gpu("w0", 0, at=10.0))
        assert [e.at for e in schedule.events] == [10.0, 30.0]

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            ChaosSchedule().fail_gpu("w0", 0, at=1.0,
                                     kind=FaultKind.PCIE_CORRUPT)
        with pytest.raises(ValueError):
            ChaosSchedule().fault_pcie("w0", 0, at=1.0,
                                       kind=FaultKind.GPU_ECC)


class TestHeartbeat:
    def test_detection_latency_is_the_heartbeat_timeout(self):
        cluster = make_cluster(n_workers=3, heartbeat_interval_s=0.5,
                               heartbeat_timeout_s=2.0)
        engine = cluster.install_chaos(
            ChaosSchedule().kill_worker("worker1", at=1.0))
        cluster.env.run()  # drain: injector applies, monitor declares, exits
        latency = engine.summary()["detection_latency_s"]["worker1"]
        # Declared at the first tick after the timeout elapses.
        assert 2.0 <= latency <= 2.5 + 1e-9
        assert cluster.worker_is_declared_dead("worker1")


class TestRecoveryReport:
    @pytest.mark.parametrize("latencies", [
        (0.2, 0.4),
        (0.12, 0.13, 0.9),
        (0.0, 78.25),
        (3.0,),
        tuple(0.5 * k for k in range(20)),
    ])
    def test_every_percentile_is_an_observed_latency(self, latencies):
        """Nearest rank over the sorted latencies: the report names a
        recovery that happened, never a bucket estimate between two."""
        cluster = make_cluster(n_workers=2)
        schedule = ChaosSchedule()
        for k, latency in enumerate(latencies):
            schedule.join_worker(at=100.0 * k)
            cluster.recovery_log.append((100.0 * k + latency, "rebalance"))
        engine = cluster.install_chaos(schedule)
        engine.applied = list(schedule.events)
        observed = sorted(e["recovery_latency_s"]
                          for e in engine.recovery_latencies())
        assert observed == pytest.approx(sorted(latencies))
        report = engine.summary()["recovery_latency_s"]
        n = len(observed)
        for pct in (50, 95, 99):
            rank = -(-pct * n // 100)            # ceil(pct * n / 100)
            assert report[f"p{pct}"] == observed[rank - 1]
        assert report["max"] == observed[-1]
        assert report["count"] == n


class TestLineageRecovery:
    def test_recomputes_exactly_the_lost_partitions(self):
        cluster = make_cluster(n_workers=3)
        session = FlinkSession(cluster)
        data = session.from_collection(list(range(12)), parallelism=6) \
            .map(lambda x: x + 1, name="stage1").persist()
        data.collect()  # job 1 materializes stage1 across the workers
        parts = cluster.materialized[data.op.uid]
        victim = parts[0].worker
        lost = {p.index for p in parts if p.worker == victim}
        assert 0 < len(lost) < len(parts)
        cluster.fail_worker(victim)  # no chaos engine: declared immediately

        result = data.map(lambda x: x * 10, name="stage2").collect()
        assert sorted(result.value) == [(x + 1) * 10 for x in range(12)]
        # Lineage recovery recomputed the lost partitions, nothing more.
        assert result.metrics.recovered_partitions == len(lost)
        refreshed = cluster.materialized[data.op.uid]
        assert all(cluster.worker_is_alive(p.worker) for p in refreshed)

    def test_worker_kill_midjob_leaves_result_identical(self):
        def run_job(cluster):
            session = FlinkSession(cluster)
            data = session.from_collection(list(range(40)), parallelism=4)
            return (data.map(lambda x: x * 3, name="triple")
                        .map(lambda x: x + 1, name="inc")
                        .collect())

        baseline = run_job(make_cluster(n_workers=3, enable_chaining=False))
        cluster = make_cluster(n_workers=3, enable_chaining=False,
                               heartbeat_interval_s=0.05,
                               heartbeat_timeout_s=0.2,
                               retry_backoff_base_s=0.01)
        engine = cluster.install_chaos(ChaosSchedule().kill_worker(
            "worker1", at=baseline.seconds / 2))
        result = run_job(cluster)
        assert sorted(result.value) == sorted(baseline.value)
        assert engine.summary()["events_applied"] == 1
        assert not cluster.workers["worker1"].alive
        assert_ports_free(cluster.network)


class TestInFlightRecovery:
    """A worker dies after some of a wave's partitions finished on it and
    before the wave ends.  The barrier consumer is woken by the wave's
    finals, possibly before the producer's own runner has put the dataset
    in ``cluster.materialized``; recovery must still recompute the lost
    partitions only — not re-run the operator as if the dataset had been
    evicted."""

    WAVE = "chain(pagerank-contrib->pagerank-tuples)"

    @staticmethod
    def run(kill_at=None, spy=None):
        cluster = GFlinkCluster(ClusterConfig(
            n_workers=4, gpus_per_worker=("c2050",),
            flink=FlinkConfig(heartbeat_interval_s=0.05,
                              heartbeat_timeout_s=0.2,
                              retry_backoff_base_s=0.01)))
        if kill_at is not None:
            cluster.install_chaos(
                ChaosSchedule().kill_worker("worker1", at=kill_at))
        if spy is not None:
            spy(cluster)
        return PageRankWorkload(nominal_pages=1e6, real_pages=400,
                                iterations=2).run(GFlinkSession(cluster),
                                                  "cpu")

    def test_recomputes_the_lost_partitions_not_the_operator(
            self, monkeypatch):
        baseline = self.run()
        wave = baseline.job_metrics[0].span_of(self.WAVE)
        recoveries = []   # (op, indices run, lost when entered)
        executed = []     # (op uid, subtask index) per subtask process
        run_op = PipelinedExecutor._run_op
        run_subtask = JobManager._run_subtask

        def recording_op(executor, op, todo, existed):
            if existed:
                lost = {i for i, part in enumerate(executor._parts[op.uid])
                        if not executor.cluster.worker_is_alive(part.worker)}
                recoveries.append((op, set(todo), lost))
            return run_op(executor, op, todo, existed)

        def recording_subtask(jm, vertex, *args, **kwargs):
            executed.append((vertex.op.uid, vertex.subtask_index))
            return run_subtask(jm, vertex, *args, **kwargs)

        monkeypatch.setattr(PipelinedExecutor, "_run_op", recording_op)
        monkeypatch.setattr(JobManager, "_run_subtask", recording_subtask)
        # Late in the wave: worker1 has finished partitions to lose.
        result = self.run(kill_at=wave.start + 0.95 * wave.seconds)

        assert values_equal(result.value, baseline.value)
        assert sum(m.recovered_partitions for m in result.job_metrics) > 0
        # Every recovery recomputed lost partitions only ...
        assert recoveries and all(todo <= lost
                                  for _op, todo, lost in recoveries)
        # ... the wave's all of them: they ran twice, the rest of its
        # subtasks once.
        (op, lost), = [(op, todo) for op, todo, lost in recoveries
                       if op.name == self.WAVE and todo == lost]
        assert 0 < len(lost) < wave.parallelism
        runs = [i for uid, i in executed if uid == op.uid]
        assert sorted(runs) == sorted(list(range(wave.parallelism))
                                      + list(lost))


def gpu_cluster(**flink_overrides):
    config = ClusterConfig(n_workers=2, cpu=CPUSpec(cores=2),
                           gpus_per_worker=("c2050",),
                           flink=FlinkConfig(**flink_overrides))
    return GFlinkCluster(config)


class TestGpuDegradation:
    def test_all_devices_blacklisted_falls_back_to_cpu(self):
        workload = lambda: PointAddWorkload(  # noqa: E731
            nominal_elements=4000, real_elements=4000, iterations=2)
        baseline = workload().run(GFlinkSession(gpu_cluster()), "gpu")

        cluster = gpu_cluster()
        cluster.install_chaos(ChaosSchedule()
                              .fail_gpu("worker0", 0, at=0.0)
                              .fail_gpu("worker1", 0, at=0.0))
        result = workload().run(GFlinkSession(cluster), "gpu")
        assert values_equal(baseline.value, result.value)
        fallback = sum(m.fallback_tasks for m in result.job_metrics)
        assert fallback > 0
        assert all(not gm.gpu_available() for gm in cluster.gpu_managers())

    def test_fallback_disabled_fails_the_job(self):
        config = ClusterConfig(n_workers=1, cpu=CPUSpec(cores=2),
                               gpus_per_worker=("c2050",))
        cluster = GFlinkCluster(
            config, gpu_config=GPUManagerConfig(cpu_fallback=False))
        cluster.install_chaos(
            ChaosSchedule().fail_gpu("worker0", 0, at=0.0))
        workload = PointAddWorkload(nominal_elements=2000,
                                    real_elements=2000, iterations=1)
        from repro.common.errors import JobExecutionError
        with pytest.raises(JobExecutionError):
            workload.run(GFlinkSession(cluster), "gpu")

    def test_kernel_without_out_fails_the_same_degraded_or_not(self):
        def run(blacklisted):
            cluster = GFlinkCluster(ClusterConfig(
                n_workers=1, cpu=CPUSpec(cores=2),
                gpus_per_worker=("c2050",)))
            if blacklisted:
                cluster.install_chaos(
                    ChaosSchedule().fail_gpu("worker0", 0, at=0.0))
            session = GFlinkSession(cluster)
            session.register_kernel(KernelSpec(
                "no-out", lambda i, p: {"res": i["in"]},
                flops_per_element=1.0))
            ds = session.from_collection(np.arange(100, dtype=np.float64),
                                         element_nbytes=8, parallelism=1)
            with pytest.raises(KernelError) as info:
                ds.gpu_map("no-out").collect()
            assert all(gm.gpu_available() is not blacklisted
                       for gm in cluster.gpu_managers())
            return str(info.value)

        assert run(blacklisted=True) == run(blacklisted=False)
