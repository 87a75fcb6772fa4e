"""Streaming block-pipelined executor (docs/STREAMING_EXECUTOR.md).

Covers the executor's contracts:

* ``BlockStream`` is a bounded channel: backpressure caps the producer at
  ``capacity`` blocks ahead of the slowest consumer, the demand override
  keeps mismatched granularities deadlock-free, and every transition is
  idempotent so retried attempts can replay;
* ``pipeline_regions`` groups operators along streaming edges and cuts at
  shuffles;
* the pipelined clock and the barriered reference clock
  (``tests.flink.conftest.barriered``) carry **bit-identical** results
  across the workload matrix (two planes, one result) while the pipelined
  clock never loses;
* a consumer wave overlaps its producer wave (the behavior
  tests/flink/test_runtime_timing.py pins its barriered tests against);
* an element-wise operator between a streaming source and a streaming
  consumer relays the block stream;
* queue/backpressure stats surface in the metrics registry;
* a worker killed mid-pipeline recovers to an identical result.
"""

from unittest import mock

import numpy as np
import pytest

from repro.common.simclock import Environment
from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig, FlinkSession, \
    OpCost
from repro.flink.chaos import ChaosSchedule, values_equal
from repro.flink.iterators import vectorized
from repro.flink.optimizer import pipeline_regions
from repro.flink.pipeline import BlockStream, PipelinedExecutor, _split_chunks
from repro.flink.plan import (
    CollectionSource,
    CollectSink,
    DistinctOp,
    MapOp,
    UnionOp,
    topological_order,
)
from repro.gpu import KernelSpec
from repro.workloads import (
    KMeansWorkload,
    LinearRegressionWorkload,
    PageRankWorkload,
    PointAddWorkload,
    SpMVWorkload,
    WordCountWorkload,
)
from tests.flink.conftest import (assert_ports_free, barriered,
                                  make_cluster)


class TestSplitChunks:
    def test_preserves_totals_and_block_boundaries(self):
        blocks = [10.0, 3.0, 0.0, 7.0]
        chunks = _split_chunks(blocks, 4.0)
        assert sum(chunks) == pytest.approx(sum(blocks))
        # Block boundaries coincide with chunk boundaries: the cumulative
        # sums of the original blocks all appear in the chunked cumsum.
        cum, cums = 0.0, set()
        for c in chunks:
            cum += c
            cums.add(round(cum, 9))
        acc = 0.0
        for b in blocks:
            acc += b
            assert round(acc, 9) in cums
        assert all(c <= 4.0 + 1e-9 for c in chunks)

    def test_every_block_yields_at_least_one_chunk(self):
        # Blocks smaller than the chunk size pass through unsplit (even
        # empty ones — their chunk just carries zero bytes).
        assert _split_chunks([1.0, 0.0, 2.0], 8.0) == [1.0, 0.0, 2.0]

    def test_equal_split_within_block(self):
        chunks = _split_chunks([10.0], 4.0)
        assert len(chunks) == 3
        assert sum(chunks) == pytest.approx(10.0)
        assert max(chunks) - min(chunks) < 1e-9 + 10.0 / 3 * 1e-9 + 1e-9


class TestBlockStream:
    def test_backpressure_blocks_producer_at_capacity(self):
        env = Environment()
        stream = BlockStream(env, [1.0] * 8, capacity=2, n_subscribers=1)
        assert stream.reserve(0).triggered
        stream.publish(0)
        assert stream.reserve(1).triggered
        stream.publish(1)
        evt = stream.reserve(2)
        assert not evt.triggered  # two ahead of the consumer's cursor
        stream.ack(0, 1)  # consumer finishes block 0 -> credit returns
        assert evt.triggered

    def test_demand_override_unblocks_exactly_enough(self):
        env = Environment()
        stream = BlockStream(env, [1.0] * 8, capacity=1, n_subscribers=1)
        stream.publish(0)
        evt = stream.reserve(1)
        assert not evt.triggered
        # A consumer waiting for three blocks' worth of bytes lets the
        # producer run ahead exactly far enough to satisfy it -- and no
        # further.  Without this, a GPU stream assembling one large device
        # block out of many small host blocks would deadlock.
        waiter = stream.when_nbytes(3.0)
        assert not waiter.triggered
        assert evt.triggered
        assert stream.reserve(2).triggered
        assert not stream.reserve(3).triggered

    def test_depth_stays_bounded_under_a_slow_consumer(self):
        env = Environment()
        stream = BlockStream(env, [1.0] * 16, capacity=3, n_subscribers=1)

        def producer():
            for k in range(16):
                yield stream.reserve(k)
                yield env.timeout(0.01)
                stream.publish(k)
            stream.close()

        def consumer():
            for k in range(16):
                yield stream.when_blocks(k + 1)
                yield env.timeout(1.0)  # 100x slower than the producer
                stream.ack(0, k + 1)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert stream.published == 16
        assert stream.max_depth <= 3

    def test_replay_is_idempotent(self):
        env = Environment()
        stream = BlockStream(env, [1.0] * 4, capacity=4, n_subscribers=1)
        stream.publish(2)  # publish is cumulative: blocks 0..2 resident
        assert stream.published == 3
        stream.publish(0)  # a retried attempt replaying an early block
        assert stream.published == 3
        stream.ack(0, 3)
        stream.ack(0, 1)  # replayed ack never moves a cursor backwards
        assert stream.depth == 0

    def test_close_resolves_every_waiter(self):
        env = Environment()
        stream = BlockStream(env, [1.0] * 4, capacity=1, n_subscribers=1)
        waiter = stream.when_nbytes(4.0)
        credit = stream.reserve(3)
        assert not waiter.triggered
        stream.close()
        assert waiter.triggered and credit.triggered
        # Late waiters on a closed stream fire immediately.
        assert stream.when_blocks(4).triggered

    def test_thresholds_clamp_to_the_total(self):
        env = Environment()
        stream = BlockStream(env, [2.0, 2.0], capacity=2, n_subscribers=1)
        waiter = stream.when_nbytes(1e9)  # more than the stream holds
        stream.publish(1)
        assert waiter.triggered
        assert stream.cum_nbytes(99) == pytest.approx(4.0)


class TestPipelineRegions:
    def test_forward_chain_is_one_region(self):
        src = CollectionSource([1, 2], 8.0)
        m1 = MapOp(src, lambda x: x, OpCost(), name="m1")
        m2 = MapOp(m1, lambda x: x, OpCost(), name="m2")
        sink = CollectSink(m2)  # gather edge: its own (barrier) region
        regions = pipeline_regions(topological_order([sink]))
        assert [{op.name for op in r} for r in regions] == \
            [{src.name, "m1", "m2"}, {sink.name}]

    def test_hash_edge_cuts_the_region(self):
        src = CollectionSource([1, 2], 8.0)
        m = MapOp(src, lambda x: x, OpCost(), name="m")
        d = DistinctOp(m, name="d")  # hash shuffle: barrier edge
        sink = CollectSink(d)  # gather: another barrier
        regions = pipeline_regions(topological_order([sink]))
        assert [{op.name for op in r} for r in regions] == \
            [{src.name, "m"}, {"d"}, {sink.name}]

    def test_union_merges_its_branches(self):
        left = CollectionSource([1], 8.0, name="left")
        right = CollectionSource([2], 8.0, name="right")
        u = UnionOp(MapOp(left, lambda x: x, OpCost(), name="ml"),
                    MapOp(right, lambda x: x, OpCost(), name="mr"))
        sink = CollectSink(u)
        regions = pipeline_regions(topological_order([sink]))
        merged = [r for r in regions if any(op is u for op in r)]
        assert len(merged) == 1
        assert {op.name for op in merged[0]} >= {"left", "right", "ml", "mr"}


def dual_cluster(**flink_overrides):
    config = ClusterConfig(n_workers=2, cpu=CPUSpec(cores=2),
                           gpus_per_worker=("c2050", "k20"),
                           flink=FlinkConfig(**flink_overrides))
    return GFlinkCluster(config)


def run_both(factory, mode):
    """One workload on the barriered reference clock and the pipelined one."""
    with barriered():
        reference = factory().run(GFlinkSession(dual_cluster()), mode)
    return reference, factory().run(GFlinkSession(dual_cluster()), mode)


MATRIX = [
    ("kmeans-gpu", "gpu", lambda: KMeansWorkload(
        nominal_elements=5e6, real_elements=4000, iterations=3)),
    ("pagerank-gpu", "gpu", lambda: PageRankWorkload(
        nominal_pages=1e5, real_pages=500, iterations=3)),
    ("spmv-gpu", "gpu", lambda: SpMVWorkload(
        nominal_elements=4000, real_elements=4000, iterations=3)),
    ("wordcount-gpu", "gpu", lambda: WordCountWorkload(
        nominal_elements=1e6, real_elements=8000)),
    ("wordcount-cpu", "cpu", lambda: WordCountWorkload(
        nominal_elements=1e6, real_elements=8000)),
    ("pointadd-gpu", "gpu", lambda: PointAddWorkload(
        nominal_elements=1e5, real_elements=2000, iterations=3)),
    ("kmeans-cpu", "cpu", lambda: KMeansWorkload(
        nominal_elements=5e6, real_elements=4000, iterations=3)),
    ("pagerank-cpu", "cpu", lambda: PageRankWorkload(
        nominal_pages=1e5, real_pages=500, iterations=3)),
    ("pagerank-cpu-vectorized", "cpu", lambda: PageRankWorkload(
        nominal_pages=1e5, real_pages=500, iterations=3, vectorized=True)),
    ("linreg-gpu", "gpu", lambda: LinearRegressionWorkload(
        nominal_elements=5e6, real_elements=4000, iterations=3)),
]


class TestStagedVsPipelined:
    @pytest.mark.parametrize("name,mode,factory", MATRIX,
                             ids=[m[0] for m in MATRIX])
    def test_results_bit_identical_and_never_slower(self, name, mode,
                                                    factory):
        reference, piped = run_both(factory, mode)
        # One data plane, two clocks: the values agree exactly, not just
        # within tolerance.
        assert values_equal(reference.value, piped.value), name
        assert reference.iterations == piped.iterations
        # Overlap can hide latency but never add it.
        assert piped.total_seconds <= reference.total_seconds + 1e-9

    def test_hdfs_scan_strictly_faster_pipelined(self):
        # A multi-block HDFS scan is where the pipeline pays: the read
        # window hides deserialization and per-block downstream charges.
        reference, piped = run_both(lambda: WordCountWorkload(
            nominal_elements=1e8, real_elements=8000), "gpu")
        assert values_equal(reference.value, piped.value)
        assert piped.total_seconds < reference.total_seconds

    def test_consumer_wave_overlaps_producer_wave(self):
        # Collection-fed consumers gate on their own producer's FINAL, not
        # on the whole producer wave -- so with more subtasks than slots
        # the map wave starts while the source wave's tail is still
        # running.  (This is why test_runtime_timing runs its exact
        # phase-ratio tests on the barriered reference clock.)
        def runtime():
            cluster = make_cluster(n_workers=1, cores=2)
            sess = FlinkSession(cluster)
            ds = sess.from_collection(list(range(1000)), element_nbytes=8.0,
                                      scale=1e4, parallelism=4)
            return ds.map(lambda x: x,
                          cost=OpCost(flops_per_element=100.0),
                          name="m").count()

        with barriered():
            reference = runtime()
        piped = runtime()
        assert reference.value == piped.value
        assert piped.seconds <= reference.seconds + 1e-9


class TestStreamRelay:
    """``read_hdfs(...).map(f).gpu_map(k)``: the map subtask charges block
    by block as its source publishes, and republishes each block into a
    stream of its own for the GPU operator's H2D stage to wait on
    (``_wire``'s element-wise rule, ``_streaming_slice``'s ``out_stream``,
    the ``out`` branches of ``TaskContext._charge_linear``)."""

    @staticmethod
    def run(udf):
        cluster = GFlinkCluster(ClusterConfig(
            n_workers=2, cpu=CPUSpec(cores=2), gpus_per_worker=("c2050",),
            flink=FlinkConfig(pipeline_block_nbytes=64 * 1024.0)))
        session = GFlinkSession(cluster)
        session.register_kernel(KernelSpec(
            "double", lambda i, p: {"out": i["in"] * 2.0},
            flops_per_element=2.0, efficiency=0.5))
        rng = np.random.default_rng(7)
        cluster.load_hdfs_file("/relay", [
            (rng.random(500), 500 * 1000 * 8)
            for _ in range(cluster.default_parallelism)])
        mapped = session.read_hdfs("/relay", element_nbytes=8.0,
                                   scale=1e3).map(udf, name="inc")
        executors = []
        real_run = PipelinedExecutor.run

        def recording(executor):
            executors.append(executor)
            return real_run(executor)

        with mock.patch.object(PipelinedExecutor, "run", recording):
            result = mapped.gpu_map("double").collect()
        (executor,) = executors
        return result, executor._streams[mapped.op.uid]

    @pytest.mark.parametrize("udf", [
        lambda x: x + 1.0, vectorized(lambda block: block + 1.0)],
        ids=["element", "vectorized"])
    def test_map_relays_its_source_stream_to_the_gpu_operator(self, udf):
        piped, relayed = self.run(udf)
        with barriered():
            reference, not_relayed = self.run(udf)
        # Relay engaged: every map subtask published a stream of its own,
        # block by block, to the end.
        assert len(relayed) == 4 and not_relayed == [None] * 4
        assert all(stream.closed and stream.published == stream.n_blocks > 1
                   for stream in relayed)
        assert values_equal(piped.value, reference.value)
        assert len(piped.value) == 4 * 500
        assert piped.seconds <= reference.seconds + 1e-9


class TestPipelineObservability:
    def test_queue_stats_reach_the_registry(self):
        cluster = dual_cluster(enable_tracing=True,
                               pipeline_block_nbytes=64 * 1024.0)
        WordCountWorkload(nominal_elements=1e7, real_elements=4000).run(
            GFlinkSession(cluster), "gpu")
        reg = cluster.obs.registry
        depth = reg.sum_values("pipeline.queue.max_depth")
        assert depth >= 1  # blocks really were in flight
        # Backpressure counters may legitimately be zero here; they must
        # at least be absent-or-nonnegative, never negative.
        assert reg.sum_values("pipeline.backpressure.stalls") >= 0
        assert reg.sum_values("pipeline.backpressure.blocks") >= 0

    def test_invalid_executor_rejected(self):
        # One engine configuration: the path selectors are not fields.
        for selector in ("executor", "columnar_shuffle", "vectorized_ops"):
            with pytest.raises(TypeError):
                FlinkConfig(**{selector: True})


class TestPipelinedChaos:
    def test_worker_kill_midpipeline_recovers_identically(self):
        factory = lambda: PointAddWorkload(  # noqa: E731
            nominal_elements=6000, real_elements=6000, iterations=3)

        def cluster():
            return dual_cluster(heartbeat_interval_s=0.05,
                                heartbeat_timeout_s=0.2,
                                retry_backoff_base_s=0.01)

        baseline = factory().run(GFlinkSession(cluster()), "gpu")
        chaotic = cluster()
        engine = chaotic.install_chaos(ChaosSchedule().kill_worker(
            "worker1", at=baseline.total_seconds / 2))
        result = factory().run(GFlinkSession(chaotic), "gpu")
        assert values_equal(baseline.value, result.value)
        assert engine.summary()["events_applied"] == 1
        assert not chaotic.workers["worker1"].alive
        assert_ports_free(chaotic.network)
