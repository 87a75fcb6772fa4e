"""One executor, one rule: a job runs exactly the partitions its sinks need
that do not already exist on a live worker.

* A later job over a persisted dataset runs none of its evicted lineage,
  and of a lost partition's evicted lineage only the same indices.
* A worker killed during a source read, during an exchange, or inside a
  barrier consumer: the answer is the fault-free one, the recovered
  partition counts are the staged recovery's, and every partition run
  beyond the fault-free run's is in the lineage closure of a lost one.
* A second worker killed while a recovery recomputes the input of a
  barrier it reruns: that barrier recovers the second loss itself, and the
  job ends with the fault-free answer.
"""

from collections import Counter

import pytest

from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, FlinkConfig, FlinkSession, OpCost
from repro.flink.chaos import ChaosSchedule, values_equal
from repro.flink.jobmanager import JobManager
from repro.flink.pipeline import PipelinedExecutor
from repro.workloads import KMeansWorkload, PageRankWorkload
from tests.flink.conftest import make_cluster


class TestPersistedReuse:
    def test_a_later_job_runs_none_of_the_evicted_lineage(self):
        session = FlinkSession(make_cluster(n_workers=4, cores=2))
        persisted = (session.from_collection(list(range(40)))
                     .map(lambda x: x + 1, name="m")
                     .map(lambda x: x * 2, name="p").persist())
        first = persisted.count()
        second = persisted.map(lambda x: x - 1, name="q").count()
        assert first.value == second.value == 40
        assert sorted(s.name for s in first.metrics.operator_spans.values()) \
            == ["collection-source", "count", "m", "p"]
        # The collection source and m were evicted after the first job;
        # p's partitions all exist, so the walk stops there.
        assert sorted(s.name for s in second.metrics.operator_spans.values()) \
            == ["count", "q"]
        assert second.metrics.subtasks == 8 + 1

    def test_partitions_lost_before_a_job_rerun_their_own_lineage_only(self):
        cluster = make_cluster(n_workers=4, cores=2,
                               heartbeat_interval_s=0.05,
                               heartbeat_timeout_s=0.2)
        session = FlinkSession(cluster)
        persisted = (session.from_collection(list(range(40)))
                     .map(lambda x: x + 1, name="m")
                     .map(lambda x: x * 2, name="p").persist())
        persisted.count()
        lost = [part.index for part in cluster.materialized[persisted.op.uid]
                if part.worker == "worker1"]
        cluster.install_chaos(
            ChaosSchedule().kill_worker("worker1", at=cluster.env.now))
        result = persisted.map(lambda x: x - 1, name="q").collect()
        assert sorted(result.value) == [2 * x + 1 for x in range(40)]
        assert 0 < len(lost) < 8
        assert result.metrics.recovered_partitions == len(lost)
        # The lost partitions of p, and of the evicted collection source
        # and m the same indices only; then all of q and the sink.
        assert result.metrics.subtasks == 3 * len(lost) + 8 + 1



class TestSecondLossDuringRecovery:
    """``m`` is slow, ``r1`` and ``r2`` are keyed reduces (hash edges).
    worker1 dies inside ``r1``: ``r2``'s barrier finds ``m2[5]`` lost and
    recovers it, which reruns ``r1[5]`` — a barrier over every partition of
    ``m`` — behind the recompute of ``m``'s lost partitions.  worker2 dies
    halfway through that recompute, so ``r1``'s barrier finds more of
    ``m`` lost inside the recovery."""

    ROWS = [(k % 5, float(k)) for k in range(400)]

    def run(self, kills=()):
        cluster = make_cluster(n_workers=4, cores=2,
                               heartbeat_interval_s=0.05,
                               heartbeat_timeout_s=0.2,
                               retry_backoff_base_s=0.01)
        if kills:
            schedule = ChaosSchedule()
            for worker, at in kills:
                schedule.kill_worker(worker, at=at)
            cluster.install_chaos(schedule)
        plus = lambda a, b: (a[0], a[1] + b[1])  # noqa: E731
        job = (FlinkSession(cluster)
               .from_collection(self.ROWS, scale=1e5, parallelism=8)
               .map(lambda r: r, name="m",
                    cost=OpCost(flops_per_element=2e4))
               .group_by(0).reduce(plus, name="r1")
               .map(lambda r: (r[0] % 2, r[1]), name="m2")
               .group_by(0).reduce(plus, name="r2")
               .collect_job())
        proc = cluster.env.process(job, name="job")
        # A job waiting on itself would not drain the schedule (heartbeats
        # keep ticking), so bound the clock instead of running to the end.
        cluster.env.run(until=300.0)
        assert proc.triggered, "the job did not finish"
        return proc.value

    def test_a_barrier_inside_a_recovery_recovers_a_second_loss(self):
        baseline = self.run()
        m = baseline.metrics.span_of("m")
        r1 = baseline.metrics.span_of("r1")
        first = (r1.start + r1.end) / 2
        once = self.run([("worker1", first)])
        # The first recovery starts after r1 ends and recomputes m first.
        twice = self.run([("worker1", first),
                          ("worker2", r1.end + m.seconds / 2)])
        assert values_equal(once.value, baseline.value)
        assert values_equal(twice.value, baseline.value)
        assert 0 < once.metrics.recovered_partitions \
            < twice.metrics.recovered_partitions


#: name -> (workload, mode, the hash/gather producer, its barrier consumer).
WORKLOADS = {
    "pagerank-cpu": (lambda: PageRankWorkload(nominal_pages=1e6,
                                              real_pages=400, iterations=2),
                     "cpu", "chain(pagerank-contrib->pagerank-tuples)",
                     "pagerank-sum"),
    "kmeans-gpu": (lambda: KMeansWorkload(nominal_elements=5e6,
                                          real_elements=4000, iterations=2),
                   "gpu", "gpu-map-partition(kmeans_assign)", "collect"),
}

#: Recovered partitions per job, as the staged recovery counted them at the
#: same kill instants.
RECOVERED = {
    ("pagerank-cpu", "source-read"): [0, 1, 0],
    ("pagerank-cpu", "exchange"): [12, 0, 0],
    ("pagerank-cpu", "barrier"): [0, 4, 0],
    ("kmeans-gpu", "source-read"): [2, 0, 0],
    ("kmeans-gpu", "exchange"): [0, 4, 0],
    ("kmeans-gpu", "barrier"): [0, 4, 0],
}


def run(name, kill_at=None):
    factory, mode, _, _ = WORKLOADS[name]
    cluster = GFlinkCluster(ClusterConfig(
        n_workers=4, gpus_per_worker=("c2050",),
        flink=FlinkConfig(heartbeat_interval_s=0.05,
                          heartbeat_timeout_s=0.2,
                          retry_backoff_base_s=0.01)))
    if kill_at is not None:
        cluster.install_chaos(
            ChaosSchedule().kill_worker("worker1", at=kill_at))
    return factory().run(GFlinkSession(cluster), mode)


def kill_instants(name, baseline):
    """Mid source read, mid exchange and mid barrier consumer of the
    fault-free first job."""
    _, _, producer, consumer = WORKLOADS[name]
    spans = baseline.job_metrics[0]
    source = next(span for span in spans.operator_spans.values()
                  if span.name.startswith("hdfs-source"))
    shipped, consumed = spans.span_of(producer), spans.span_of(consumer)
    assert shipped.end < consumed.start
    return {"source-read": (source.start + source.end) / 2,
            "exchange": (shipped.end + consumed.start) / 2,
            "barrier": (consumed.start + consumed.end) / 2}


@pytest.fixture(scope="module")
def baselines():
    return {name: run(name) for name in WORKLOADS}


class Recorder:
    """Every subtask run, per job; every partition a walk found lost, with
    the plan edges and widths its closure needs."""

    def __init__(self, monkeypatch):
        self.executed = Counter()   # (job, op name, index)
        self.lost = set()           # (op name, index)
        self.inputs = {}            # op name -> [(input name, streams)]
        self.width = {}             # op name -> partitions
        run_subtask = JobManager._run_subtask
        compute = PipelinedExecutor._compute

        def recording_subtask(jm, vertex, inputs, preassigned, metrics,
                              *args, **kwargs):
            self.executed[(metrics.job_name, vertex.op.name,
                           vertex.subtask_index)] += 1
            return run_subtask(jm, vertex, inputs, preassigned, metrics,
                               *args, **kwargs)

        def recording_compute(executor, wanted):
            alive = executor.cluster.worker_is_alive
            for op in executor.graph.order:
                self.inputs[op.name] = [
                    (inp.name, strat.is_streaming)
                    for inp, strat in zip(op.inputs, op.strategies)]
                self.width[op.name] = executor._width(op)
                parts = executor._parts.get(
                    op.uid, executor.cluster.materialized.get(op.uid))
                self.lost |= {(op.name, i)
                              for i, part in enumerate(parts or ())
                              if part is not None and not alive(part.worker)}
            return compute(executor, wanted)

        monkeypatch.setattr(JobManager, "_run_subtask", recording_subtask)
        monkeypatch.setattr(PipelinedExecutor, "_compute", recording_compute)

    def closure(self):
        """The lost partitions and the lineage they are computed from: a
        forward edge needs the same index of its input, any other edge all
        of them."""
        seen, stack = set(), list(self.lost)
        while stack:
            name, i = stack.pop()
            if (name, i) in seen:
                continue
            seen.add((name, i))
            for inp, streams in self.inputs[name]:
                stack.extend([(inp, i)] if streams else
                             [(inp, j) for j in range(self.width[inp])])
        return seen


@pytest.mark.parametrize("instant", ["source-read", "exchange", "barrier"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_killed_worker_recomputes_inside_the_lineage_closure(
        name, instant, baselines, monkeypatch):
    baseline = baselines[name]
    kill_at = kill_instants(name, baseline)[instant]
    recorder = Recorder(monkeypatch)
    run(name)
    clean = recorder.executed.copy()
    recorder.executed.clear()
    recorder.lost.clear()
    result = run(name, kill_at)

    assert values_equal(result.value, baseline.value)
    assert [m.recovered_partitions for m in result.job_metrics] \
        == RECOVERED[(name, instant)]
    recomputed = recorder.executed - clean
    assert recomputed and recorder.lost
    assert {(op, i) for _job, op, i in recomputed} <= recorder.closure()
