"""Timing-model tests: the simulated clock must follow the cost model."""

import pytest

from repro.flink import FlinkSession, OpCost
from tests.flink.conftest import barriered, make_cluster


class TestIteratorCostModel:
    def test_map_compute_time_matches_model(self):
        cluster = make_cluster(n_workers=1, cores=1)
        session = FlinkSession(cluster)
        flink = cluster.config.flink
        cpu = cluster.config.cpu
        n, flops = 1_000_000, 100.0
        # 1000 real elements standing in for 1e6 nominal.
        ds = session.from_collection(list(range(1000)), scale=1000.0,
                                     parallelism=1)
        result = ds.map(lambda x: x, cost=OpCost(flops_per_element=flops),
                        name="timed-map").collect()
        expected = n * (flink.element_overhead_s + flops / cpu.flops_per_core)
        span = result.metrics.span_of("timed-map")
        overhead = flink.task_schedule_s + flink.task_deploy_s
        assert span.seconds == pytest.approx(expected + overhead, rel=1e-6)

    def test_compute_seconds_accumulate(self):
        cluster = make_cluster(n_workers=1, cores=1)
        session = FlinkSession(cluster)
        ds = session.from_collection(list(range(100)), parallelism=1)
        result = ds.map(lambda x: x, cost=OpCost(flops_per_element=1000.0)) \
            .collect()
        assert result.metrics.compute_s > 0

    def test_job_pays_submit_overhead(self, session):
        result = session.from_collection([1]).collect()
        assert result.seconds >= session.cluster.config.flink.job_submit_s

    def test_more_cores_speed_up_parallel_map(self):
        # Barriered reference clock: the map wave starts only after the
        # whole source wave finished, so the phase ratio is exactly the
        # slot ratio.  The pipeline overlaps the waves (a consumer subtask
        # starts on its own producer's final), which is measured in
        # tests/flink/test_pipeline.py instead.
        def runtime(cores):
            cluster = make_cluster(n_workers=1, cores=cores)
            sess = FlinkSession(cluster)
            # element_nbytes=0 isolates compute from source-shipping time.
            ds = sess.from_collection(list(range(1000)), element_nbytes=0.0,
                                      scale=1e4, parallelism=4)
            result = ds.map(lambda x: x,
                            cost=OpCost(flops_per_element=100.0),
                            name="m").count()
            return result.seconds, result.metrics.span_of("m").seconds

        with barriered():
            (slow, slow_span), (fast, fast_span) = runtime(1), runtime(4)
        assert fast < slow
        # The map phase itself scales ~linearly with slots; the whole job is
        # capped by the fixed submit overhead (Observation 3).
        assert slow_span / fast_span == pytest.approx(4.0, rel=0.05)

    def test_more_workers_speed_up_parallel_map(self):
        def runtime(workers):
            cluster = make_cluster(n_workers=workers, cores=2)
            sess = FlinkSession(cluster)
            ds = sess.from_collection(list(range(1000)), scale=1e4,
                                      parallelism=8)
            return ds.map(lambda x: x,
                          cost=OpCost(flops_per_element=200.0)) \
                .count().seconds

        assert runtime(4) < runtime(1)


class TestSlotContention:
    def test_tasks_queue_when_slots_exhausted(self):
        # 1 worker x 1 slot, 4 subtasks of equal compute -> ~4x serial time.
        # Barriered: waves never overlap, so the ratio is exact (the
        # pipeline lets map subtasks contend with the source wave's tail).
        def map_span(cores):
            session = FlinkSession(make_cluster(n_workers=1, cores=cores))
            ds = session.from_collection(list(range(400)), scale=1e4,
                                         parallelism=4)
            result = ds.map(lambda x: x,
                            cost=OpCost(flops_per_element=100.0),
                            name="m").count()
            return result.metrics.span_of("m").seconds

        with barriered():
            span_serial, span_parallel = map_span(1), map_span(4)
        assert span_serial / span_parallel == pytest.approx(4.0, rel=0.05)


class TestLocality:
    def test_forward_edge_stays_local(self):
        cluster = make_cluster(n_workers=2, cores=2)
        session = FlinkSession(cluster)
        ds = session.from_collection(list(range(100)), element_nbytes=1000,
                                     parallelism=4)
        sent_before = sum(cluster.network.bytes_sent(w)
                          for w in cluster.config.worker_names())
        ds.map(lambda x: x).map(lambda x: x).count()
        sent_after = sum(cluster.network.bytes_sent(w)
                         for w in cluster.config.worker_names())
        # Forward chains move no partition data between workers; only the
        # count bytes (8 per producer) and master traffic flow.
        assert sent_after - sent_before < 1000

    def test_shuffle_moves_bytes(self):
        cluster = make_cluster(n_workers=2, cores=2)
        session = FlinkSession(cluster)
        data = [(i % 16, i) for i in range(256)]
        result = session.from_collection(data, element_nbytes=100) \
            .group_by(lambda kv: kv[0]) \
            .reduce(lambda a, b: (a[0], a[1] + b[1]), combinable=False) \
            .collect()
        assert result.metrics.shuffle_bytes > 0

    def test_combinable_reduce_shuffles_less(self):
        def shuffled(combinable):
            cluster = make_cluster(n_workers=2, cores=2)
            session = FlinkSession(cluster)
            data = [(i % 4, 1) for i in range(512)]
            result = session.from_collection(data, element_nbytes=100) \
                .group_by(lambda kv: kv[0]) \
                .reduce(lambda a, b: (a[0], a[1] + b[1]),
                        combinable=combinable) \
                .collect()
            assert sorted(result.value) == [(0, 128), (1, 128),
                                            (2, 128), (3, 128)]
            return result.metrics.shuffle_bytes

        assert shuffled(True) < shuffled(False)


class TestObservation3:
    """Paper §6.3 Observation 3: fixed overheads dominate small inputs."""

    def test_speedup_style_ratio_grows_with_input(self):
        def job_seconds(nominal_scale):
            cluster = make_cluster(n_workers=2, cores=2)
            session = FlinkSession(cluster)
            ds = session.from_collection(list(range(500)),
                                         scale=nominal_scale, parallelism=4)
            return ds.map(lambda x: x,
                          cost=OpCost(flops_per_element=500.0)).count().seconds

        small, large = job_seconds(10.0), job_seconds(1e5)
        submit = 0.6
        # Small job: overhead-dominated; large job: compute-dominated.
        assert small < submit * 3
        assert large > submit * 10
