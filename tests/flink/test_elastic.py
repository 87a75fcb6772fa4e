"""Elastic membership end-to-end: join/drain/leave, rebalancing, autoscaling.

Covers the elasticity contracts:

* mid-job joins/drains/leaves change placement and timing only — job
  results stay bit-identical to a static-membership run;
* a graceful drain migrates every cached partition (zero lineage
  recomputes) and decommissions the co-located datanode;
* an abrupt leave falls back to the PR 4 failure machinery (declaration,
  retry, lineage recovery);
* ``Scheduler.reschedule`` has a deterministic fallback when every healthy
  worker is in the avoid set (the satellite regression);
* the autoscaler actuates on slot pressure, remote-read fraction and
  pcie_bound profiles, respecting cooldown and the worker ceiling, and
  decides the same with tracing and monitoring on or off;
* empty chaos/churn schedules perturb nothing, even with monitoring and
  tracing enabled.
"""

from functools import partial

import numpy as np
import pytest

from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig, FlinkSession
from repro.flink.autoscaler import Autoscaler, AutoscalerPolicy
from repro.flink.chaos import (
    ChaosSchedule,
    ChurnSchedule,
    FaultKind,
    values_equal,
)
from repro.flink.graph import ExecutionVertex
from repro.flink.iterators import vectorized
from repro.flink.payload import segment_sum
from repro.flink.rebalance import Rebalancer
from repro.flink.scheduler import Scheduler
from repro.workloads import KMeansWorkload, PageRankWorkload, SpMVWorkload
from tests.flink.conftest import assert_ports_free, make_cluster


class TestMembership:
    def test_join_registers_everything(self):
        cluster = make_cluster(n_workers=2)
        name = cluster.add_worker()
        assert name == "elastic0"
        assert cluster.is_member(name)
        assert name in cluster.workers
        assert name in cluster.hdfs.datanodes
        assert name in cluster.hdfs.namenode.datanode_names
        assert name in cluster.network.nodes
        # Logical partitioning stays pinned to the configured shape.
        assert cluster.default_parallelism == cluster.config.total_slots

    def test_join_name_collision_rejected(self):
        cluster = make_cluster(n_workers=2)
        with pytest.raises(Exception):
            cluster.add_worker("worker0")

    def test_drain_retires_worker(self):
        cluster = make_cluster(n_workers=3, enable_tracing=True)
        cluster.env.process(cluster.drain_worker("worker2"), name="drain")
        cluster.env.run()
        worker = cluster.workers["worker2"]
        assert not cluster.is_member("worker2")
        assert worker.departed and not worker.alive
        assert not cluster.worker_is_schedulable("worker2")
        # Drains are silent departures, not failures: declared (so nothing
        # ever waits on the heartbeat timeout) without failure counters.
        assert cluster.worker_is_declared_dead("worker2")
        assert cluster.obs.registry.sum_values("worker.failures") == 0
        assert "worker2" not in cluster.hdfs.namenode.datanode_names

    def test_departed_name_cannot_rejoin(self):
        cluster = make_cluster(n_workers=3)
        cluster.env.process(cluster.drain_worker("worker2"), name="drain")
        cluster.env.run()
        with pytest.raises(Exception):
            cluster.add_worker("worker2")

    def test_abrupt_leave_uses_failure_path(self):
        cluster = make_cluster(n_workers=3, enable_tracing=True,
                               heartbeat_interval_s=0.05,
                               heartbeat_timeout_s=0.1)
        cluster.install_chaos(ChaosSchedule())
        cluster.remove_worker("worker1")
        cluster.env.run()
        assert not cluster.is_member("worker1")
        assert not cluster.workers["worker1"].alive
        assert cluster.worker_is_declared_dead("worker1")
        assert cluster.obs.registry.sum_values("worker.failures") == 1


class TestRebalance:
    def _persisted(self, cluster, parallelism=6):
        session = FlinkSession(cluster)
        data = session.from_collection(list(range(12)),
                                       parallelism=parallelism) \
            .map(lambda x: x + 1, name="stage1").persist()
        data.collect()
        return data

    def test_join_rebalances_cached_partitions(self):
        cluster = make_cluster(n_workers=2, enable_tracing=True)
        data = self._persisted(cluster)
        name = cluster.add_worker()
        cluster.env.run()  # let the rebalance process drain
        counts = Rebalancer(cluster).resident_counts()
        assert counts[name] >= 1
        # Migration is bookkeeping, not recomputation: the follow-up job
        # sees every partition where the store says it is.
        result = data.map(lambda x: x * 10, name="stage2").collect()
        assert sorted(result.value) == [(x + 1) * 10 for x in range(12)]
        assert result.metrics.recovered_partitions == 0
        assert cluster.obs.registry.sum_values("rebalance.partitions") \
            == counts[name]

    def test_drain_migrates_everything_no_lineage(self):
        cluster = make_cluster(n_workers=3)
        data = self._persisted(cluster)
        held = [p for p in cluster.materialized[data.op.uid]
                if p.worker == "worker2"]
        assert held  # the drain actually has state to move
        cluster.env.process(cluster.drain_worker("worker2"), name="drain")
        cluster.env.run()
        assert all(p.worker != "worker2"
                   for p in cluster.materialized[data.op.uid])
        result = data.map(lambda x: x * 10, name="stage2").collect()
        assert sorted(result.value) == [(x + 1) * 10 for x in range(12)]
        assert result.metrics.recovered_partitions == 0

    def test_abrupt_leave_recovers_by_lineage(self):
        cluster = make_cluster(n_workers=3, heartbeat_interval_s=0.05,
                               heartbeat_timeout_s=0.1)
        cluster.install_chaos(ChaosSchedule())
        data = self._persisted(cluster)
        lost = {p.index for p in cluster.materialized[data.op.uid]
                if p.worker == "worker2"}
        assert lost
        cluster.remove_worker("worker2")
        result = data.map(lambda x: x * 10, name="stage2").collect()
        assert sorted(result.value) == [(x + 1) * 10 for x in range(12)]
        assert result.metrics.recovered_partitions == len(lost)


class TestChurnBitIdentity:
    def _run_job(self, cluster):
        session = FlinkSession(cluster)
        data = session.from_collection(list(range(60)), parallelism=4)
        return (data.map(lambda x: x * 3, name="triple")
                    .map(lambda x: x + 1, name="inc")
                    .group_by(lambda x: x % 5)
                    .reduce(lambda a, b: a + b, name="sum")
                    .collect())

    @pytest.mark.parametrize("executor", ["pipelined"])  # keeps the test id
    def test_churn_matrix_identical(self, executor):
        overrides = dict(enable_chaining=False,
                         heartbeat_interval_s=0.02,
                         heartbeat_timeout_s=0.05,
                         retry_backoff_base_s=0.01)
        baseline = self._run_job(make_cluster(n_workers=3, **overrides))
        span = baseline.seconds
        # >= 2 joins and >= 2 leaves mid-job, one graceful + one abrupt.
        schedule = (ChurnSchedule()
                    .join_worker(at=span * 0.1)
                    .join_worker(at=span * 0.2)
                    .drain_worker("worker2", at=span * 0.4)
                    .leave_worker("elastic0", at=span * 0.6))
        cluster = make_cluster(n_workers=3, **overrides)
        engine = cluster.install_chaos(schedule)
        result = self._run_job(cluster)
        assert engine.summary()["events_applied"] == 4
        assert values_equal(sorted(baseline.value), sorted(result.value))
        assert_ports_free(cluster.network)

    def test_random_churn_identical(self):
        overrides = dict(heartbeat_interval_s=0.02,
                         heartbeat_timeout_s=0.05,
                         retry_backoff_base_s=0.01)
        baseline = self._run_job(make_cluster(n_workers=3, **overrides))
        schedule = ChurnSchedule.random(
            seed=10, duration_s=baseline.seconds,
            workers=["worker0", "worker1", "worker2"],
            join_rate=3.0 / baseline.seconds,
            leave_rate=2.0 / baseline.seconds, min_workers=2)
        cluster = make_cluster(n_workers=3, **overrides)
        cluster.install_chaos(schedule)
        result = self._run_job(cluster)
        assert values_equal(sorted(baseline.value), sorted(result.value))
        assert_ports_free(cluster.network)

    def test_random_churn_schedule_is_deterministic(self):
        kwargs = dict(seed=13, duration_s=120.0,
                      workers=["w0", "w1", "w2"], join_rate=0.03,
                      leave_rate=0.02, min_workers=1)
        a = ChurnSchedule.random(**kwargs).events
        b = ChurnSchedule.random(**kwargs).events
        assert a == b
        kinds = {e.kind for e in a}
        assert kinds <= {FaultKind.WORKER_JOIN, FaultKind.WORKER_DRAIN,
                         FaultKind.WORKER_LEAVE}


class _DummyOp:
    name = "op"


class TestSchedulerFallback:
    """Satellite regression: reschedule when every healthy worker is in
    the avoid set must fall back deterministically, not arbitrarily."""

    def test_all_avoided_detection(self):
        sched = Scheduler(["w0", "w1"])
        assert sched.all_avoided(["w0", "w1"])
        assert not sched.all_avoided(["w0"])

    def test_fallback_prefers_least_recently_faulted(self):
        sched = Scheduler(["w0", "w1", "w2"])
        sched.note_fault("w0")   # oldest fault
        sched.note_fault("w2")
        sched.note_fault("w1")   # most recent fault
        vertex = ExecutionVertex(_DummyOp(), 0)
        picked = sched.reschedule(vertex, avoid=("w0", "w1", "w2"))
        assert picked == "w0"

    def test_fallback_never_faulted_wins(self):
        sched = Scheduler(["w0", "w1"])
        sched.note_fault("w0")
        vertex = ExecutionVertex(_DummyOp(), 0)
        assert sched.reschedule(vertex, avoid=("w0", "w1")) == "w1"

    def test_normal_path_still_avoids(self):
        sched = Scheduler(["w0", "w1"])
        vertex = ExecutionVertex(_DummyOp(), 0)
        assert sched.reschedule(vertex, avoid=("w0",)) == "w1"

    def test_single_worker_cluster_falls_back_to_it(self):
        sched = Scheduler(["w0"])
        sched.note_fault("w0")
        vertex = ExecutionVertex(_DummyOp(), 0)
        assert sched.reschedule(vertex, avoid=("w0",)) == "w0"


class TestAutoscaler:
    def test_pcie_bound_profile_actuates_immediately(self):
        cluster = make_cluster(n_workers=2)
        scaler = Autoscaler(cluster)
        before = cluster.tuning.pipeline_block_nbytes
        scaler.observe_profile(
            {"operators": {"gpu-map": {"class": "pcie_bound"}}})
        assert cluster.tuning.prefer_local_placement
        assert cluster.tuning.pipeline_block_nbytes == 2 * before
        assert [d.action for d in scaler.decisions] == ["prefer_cache"]

    def test_pcie_bound_profile_actuates_once_naming_its_operators(self):
        """A profile is applied when observed, once: the ticks after it do
        not widen the blocks again, and a decision taken while the loop
        runs names its operators too."""
        cluster = make_cluster(n_workers=2)
        scaler = Autoscaler(cluster, AutoscalerPolicy(interval_s=1.0))
        before = cluster.tuning.pipeline_block_nbytes
        scaler.observe_profile(
            {"operators": {"gpu-map": {"class": "pcie_bound"}}})
        scaler.start()
        cluster.env.run(until=3.5)
        assert cluster.tuning.pipeline_block_nbytes == 2 * before
        scaler.observe_profile(
            {"operators": {"gpu-reduce": {"class": "pcie_bound"}}})
        cluster.env.run(until=5.5)
        scaler.stop()
        assert cluster.tuning.pipeline_block_nbytes == 4 * before
        assert [(d.time, d.action, d.detail["operators"])
                for d in scaler.decisions] == [
            (0.0, "prefer_cache", ["gpu-map"]),
            (3.5, "prefer_cache", ["gpu-reduce"])]

    def test_widened_blocks_reach_the_exchange(self):
        """``cluster.tuning`` is the one block width: a cluster widened to
        2W mid-life prices a zero-copy keyed reduce — source sub-blocks,
        operator charges *and* the exchange's wire-block framing — exactly
        like a cluster born at 2W."""
        narrow = 64 * 1024.0

        def reduce_fn(block, starts):
            out = block[starts]
            out[:, 1] = segment_sum(block[:, 1], starts)
            return out

        def run(born, widen):
            cluster = make_cluster(n_workers=2, pipeline_block_nbytes=born)
            if widen:
                Autoscaler(cluster).observe_profile(
                    {"operators": {"gpu-map": {"class": "pcie_bound"}}})
            assert cluster.tuning.pipeline_block_nbytes == 2 * narrow
            rows = np.stack([np.arange(4000) % 997, np.ones(4000)],
                            axis=1).astype(np.float64)
            result = FlinkSession(cluster).from_collection(
                rows, element_nbytes=16.0, scale=1e3).group_by(vectorized(
                    lambda block: block[:, 0].astype(np.int64))) \
                .reduce(vectorized(reduce_fn)).collect()
            assert result.metrics.shuffle_zero_copy_bytes > 2 * narrow
            return result.seconds

        assert run(narrow, widen=True) == run(2 * narrow, widen=False)

    def test_non_pcie_profile_is_ignored(self):
        cluster = make_cluster(n_workers=2)
        scaler = Autoscaler(cluster)
        scaler.observe_profile(
            {"operators": {"map": {"class": "cpu_bound"}}})
        assert not cluster.tuning.prefer_local_placement
        assert scaler.decisions == []

    def test_slot_pressure_adds_worker_with_cooldown_and_ceiling(self):
        cluster = make_cluster(n_workers=2)
        policy = AutoscalerPolicy(cooldown_s=5.0, max_workers=3)
        scaler = Autoscaler(cluster, policy)
        scaler._maybe_add_worker(pressure=2.0)
        assert len(cluster.member_names()) == 3
        # Cooldown: an immediate second trigger is a no-op.
        scaler._maybe_add_worker(pressure=2.0)
        assert len(cluster.member_names()) == 3
        # Ceiling: even past the cooldown the cluster never exceeds it.
        cluster.env.run(until=10.0)
        scaler._maybe_add_worker(pressure=2.0)
        assert len(cluster.member_names()) == 3
        assert [d.signal for d in scaler.decisions] == ["sched_bound"]

    def test_remote_reads_deepen_queue(self):
        """hdfs_bound decides from HDFS's own read counts, so it fires with
        observability off."""
        cluster = make_cluster(n_workers=3)
        assert not cluster.obs.active
        env, hdfs = cluster.env, cluster.hdfs
        env.run(until=env.process(hdfs.write(
            "/in", [(i, 4096) for i in range(10)], writer_node="worker0")))

        def read_all():
            for i, block in enumerate(hdfs.locate("/in")):
                # One local read, nine streamed from a replica elsewhere.
                at = block.replicas[0] if i == 0 else next(
                    n for n in cluster.member_names()
                    if n not in block.replicas)
                yield from hdfs.read_block(block, at)

        env.run(until=env.process(read_all()))
        assert hdfs.block_reads == {"local": 1, "remote": 9}
        scaler = Autoscaler(cluster)
        before = cluster.tuning.pipeline_queue_blocks
        scaler._evaluate()
        assert cluster.tuning.pipeline_queue_blocks == 2 * before
        # The next window sees only the *delta*: no new reads, no action.
        scaler._evaluate()
        assert cluster.tuning.pipeline_queue_blocks == 2 * before
        assert [(d.signal, d.detail["remote_read_fraction"])
                for d in scaler.decisions] == [("hdfs_bound", 0.9)]

    def test_pressure_slope_falls_back_to_local_trend(self):
        cluster = make_cluster(n_workers=2)
        scaler = Autoscaler(cluster)
        for p in (0.1, 0.2, 0.3, 0.4):
            scaler._pressure_trend.update(p)
        assert scaler.pressure_slope() == pytest.approx(0.1)

    def test_sustained_low_pressure_drains_a_worker(self):
        cluster = make_cluster(n_workers=3)
        policy = AutoscalerPolicy(low_pressure_windows=3, min_workers=2,
                                  cooldown_s=0.0)
        scaler = Autoscaler(cluster, policy)
        scaler._busy_seen = True      # as if the cluster had run tasks
        for _ in range(3):
            scaler._evaluate()        # idle cluster: pressure 0 each tick
        drains = [d for d in scaler.decisions if d.action == "drain_worker"]
        assert len(drains) == 1
        assert drains[0].signal == "low_pressure"
        cluster.env.run()             # let the drain process finish
        schedulable = [n for n in cluster.member_names()
                       if cluster.worker_is_schedulable(n)]
        assert len(schedulable) == 2

    def test_idle_from_birth_never_drains(self):
        # Before any load is observed (e.g. during the HDFS load phase)
        # low-pressure windows must not accumulate: draining there would
        # race in-flight block writes.
        cluster = make_cluster(n_workers=3)
        policy = AutoscalerPolicy(low_pressure_windows=1, min_workers=1,
                                  cooldown_s=0.0)
        scaler = Autoscaler(cluster, policy)
        for _ in range(5):
            scaler._evaluate()
        assert all(d.action != "drain_worker" for d in scaler.decisions)
        assert not scaler._busy_seen

    def test_min_workers_floor_blocks_drain(self):
        cluster = make_cluster(n_workers=2)
        policy = AutoscalerPolicy(low_pressure_windows=1, min_workers=2,
                                  cooldown_s=0.0)
        scaler = Autoscaler(cluster, policy)
        scaler._busy_seen = True
        for _ in range(5):
            scaler._evaluate()
        assert all(d.action != "drain_worker" for d in scaler.decisions)
        assert len(cluster.member_names()) == 2

    def test_predictive_scale_down_drains_idle_worker_bit_identically(self):
        def run(scaled):
            cluster = GFlinkCluster(ClusterConfig(
                n_workers=4, cpu=CPUSpec(cores=2),
                gpus_per_worker=("c2050",)))
            scaler = None
            if scaled:
                # slot_pressure_high=10 suppresses scale-up so the run
                # isolates the drain path; the inter-iteration submit
                # gaps of KMeans provide the sustained-idle windows.
                scaler = Autoscaler(cluster, AutoscalerPolicy(
                    interval_s=0.1, cooldown_s=1.0,
                    low_pressure_windows=3, min_workers=2,
                    slot_pressure_high=10.0))
                scaler.start()
            res = KMeansWorkload(real_elements=3000, iterations=3).run(
                GFlinkSession(cluster), "cpu")
            if scaler:
                scaler.stop()
            return res, scaler, cluster

        plain, _, _ = run(scaled=False)
        scaled, scaler, cluster = run(scaled=True)
        cluster.env.run()             # finish in-flight drain processes
        drains = [d for d in scaler.decisions
                  if d.action == "drain_worker"]
        assert drains, "sustained idle windows never triggered a drain"
        assert all(d.signal == "low_pressure" for d in drains)
        schedulable = [n for n in cluster.member_names()
                       if cluster.worker_is_schedulable(n)]
        assert len(schedulable) >= scaler.policy.min_workers
        assert len(schedulable) < 4
        assert values_equal(plain.value, scaled.value)

    def test_autoscaled_run_is_identical_and_never_slower(self):
        def run_job(cluster):
            session = FlinkSession(cluster)
            data = session.from_collection(list(range(80)), parallelism=8)
            return (data.map(lambda x: x * 2, name="double")
                        .map(lambda x: x - 1, name="dec")
                        .collect())

        fixed = run_job(make_cluster(n_workers=2))
        cluster = make_cluster(n_workers=2)
        scaler = Autoscaler(cluster, AutoscalerPolicy(
            interval_s=0.5, cooldown_s=0.5, max_workers=4,
            slot_pressure_high=1.01))
        scaler.start()
        result = run_job(cluster)
        scaler.stop()
        assert values_equal(sorted(fixed.value), sorted(result.value))
        assert result.seconds <= fixed.seconds + 1e-9


class TestAutoscalerObsIdentity:
    """The autoscaler reads the cluster, never a sink: its decisions, and
    with them the clock, are the same with tracing and monitoring on or
    off.  PageRank-CPU scales out on the pressure trend (which the monitor
    also trends), SpMV-GPU deepens the read queue on remote block reads
    (which the tracer also counts)."""

    CELLS = {
        "pagerank-cpu-4x2": (partial(PageRankWorkload, real_pages=2000,
                                     iterations=2), "cpu", 4, 2),
        "spmv-gpu-10x4": (partial(SpMVWorkload, real_elements=2000,
                                  iterations=2), "gpu", 10, 4),
        "kmeans-gpu-4x2": (partial(KMeansWorkload, real_elements=1000,
                                   iterations=2), "gpu", 4, 2),
    }

    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_decisions_and_clock_ignore_observability(self, cell):
        make_workload, mode, n_workers, cores = self.CELLS[cell]

        def run(tracing, monitoring):
            cluster = GFlinkCluster(ClusterConfig(
                n_workers=n_workers, cpu=CPUSpec(cores=cores),
                gpus_per_worker=("c2050",), flink=FlinkConfig(
                    enable_tracing=tracing, enable_monitoring=monitoring)))
            scaler = Autoscaler(cluster,
                                AutoscalerPolicy(max_workers=2 * n_workers))
            scaler.start()
            result = make_workload().run(GFlinkSession(cluster), mode)
            scaler.stop()
            return scaler.decisions, repr(result.iteration_seconds), \
                result.value

        decisions, seconds, value = run(False, False)
        assert decisions
        for tracing, monitoring in ((True, False), (False, True),
                                    (True, True)):
            other = run(tracing, monitoring)
            assert other[:2] == (decisions, seconds)
            assert values_equal(other[2], value)


class TestEmptySchedules:
    """Satellite: an installed-but-empty schedule perturbs nothing, even
    with monitoring + tracing on."""

    def _run(self, schedule):
        cluster = make_cluster(n_workers=2, enable_tracing=True,
                               enable_monitoring=True)
        if schedule is not None:
            cluster.install_chaos(schedule)
        session = FlinkSession(cluster)
        data = session.from_collection(list(range(40)), parallelism=4)
        return data.map(lambda x: x + 7, name="add").collect()

    def test_empty_schedules_bit_identical_clock(self):
        plain = self._run(None)
        chaos = self._run(ChaosSchedule())
        churn = self._run(ChurnSchedule())
        assert plain.seconds == chaos.seconds == churn.seconds
        assert values_equal(plain.value, chaos.value)
        assert values_equal(plain.value, churn.value)


class TestRecoveryLatencyReport:
    def test_summary_has_percentiles_and_report_renders(self):
        from repro.flink.report import resilience_report
        cluster = make_cluster(n_workers=3, heartbeat_interval_s=0.05,
                               heartbeat_timeout_s=0.1,
                               retry_backoff_base_s=0.01)
        engine = cluster.install_chaos(
            ChaosSchedule().kill_worker("worker2", at=0.5))
        session = FlinkSession(cluster)
        data = session.from_collection(list(range(40)), parallelism=6) \
            .map(lambda x: x + 1, name="slow").persist()
        data.collect()
        cluster.env.run()
        summary = engine.summary()
        recovery = summary["recovery_latency_s"]
        assert recovery["count"] == 1.0
        assert recovery["p50"] >= 0.1  # at least the heartbeat timeout
        assert recovery["p99"] >= recovery["p50"]
        assert summary["per_event"][0]["kind"] == "worker-kill"
        assert "declare" in summary["per_event"][0]["actions"]

        class _Result:
            job_metrics = []
            total_seconds = 1.0
        text = resilience_report(engine, _Result())
        assert "recovery latency" in text
