"""Tests for operator chaining (the plan optimizer)."""

from repro.flink import ClusterConfig, CPUSpec, FlinkConfig, FlinkSession, OpCost
from repro.flink.optimizer import FusedMapOp, apply_chaining
from repro.flink.plan import (
    CollectSink,
    CollectionSource,
    MapOp,
    topological_order,
)
from repro.flink.runtime import Cluster
from tests.flink.conftest import make_cluster


def chained_session(enable=True, **kw):
    flink = FlinkConfig(enable_chaining=enable)
    config = ClusterConfig(n_workers=1, cpu=CPUSpec(cores=2), flink=flink)
    return FlinkSession(Cluster(config))


class TestApplyChaining:
    def _plan(self, n_maps=3):
        src = CollectionSource(list(range(10)), 8.0)
        op = src
        for i in range(n_maps):
            op = MapOp(op, lambda x: x + 1, OpCost(), name=f"m{i}")
        return CollectSink(op), src

    def test_linear_chain_fused(self):
        sink, src = self._plan(3)
        apply_chaining([sink])
        order = topological_order([sink])
        fused = [op for op in order if isinstance(op, FusedMapOp)]
        assert len(fused) == 1
        assert len(fused[0].stages) == 3
        assert fused[0].inputs == [src]

    def test_single_op_not_fused(self):
        sink, _ = self._plan(1)
        apply_chaining([sink])
        assert not any(isinstance(op, FusedMapOp)
                       for op in topological_order([sink]))

    def test_persisted_op_breaks_chain(self):
        src = CollectionSource([1], 8.0)
        m1 = MapOp(src, lambda x: x, OpCost(), name="m1")
        m2 = MapOp(m1, lambda x: x, OpCost(), name="m2")
        m2.persisted = True
        m3 = MapOp(m2, lambda x: x, OpCost(), name="m3")
        sink = CollectSink(m3)
        apply_chaining([sink])
        order = topological_order([sink])
        # m2 must survive as an identity in the plan (cross-job reuse).
        assert m2 in order
        assert not any(isinstance(op, FusedMapOp) and m2 in op.stages
                       for op in order)

    def test_multi_consumer_breaks_chain(self):
        src = CollectionSource([1], 8.0)
        shared = MapOp(src, lambda x: x, OpCost(), name="shared")
        a = MapOp(shared, lambda x: x, OpCost(), name="a")
        b = MapOp(shared, lambda x: x, OpCost(), name="b")
        sinks = [CollectSink(a), CollectSink(b)]
        apply_chaining(sinks)
        order = topological_order(sinks)
        assert shared in order  # not absorbed into either branch

    def test_explicit_parallelism_breaks_chain(self):
        src = CollectionSource([1], 8.0, parallelism=2)
        m1 = MapOp(src, lambda x: x, OpCost(), parallelism=2, name="m1")
        m2 = MapOp(m1, lambda x: x, OpCost(), parallelism=2, name="m2")
        sink = CollectSink(m2)
        apply_chaining([sink])
        assert not any(isinstance(op, FusedMapOp)
                       for op in topological_order([sink]))


class TestChainedExecution:
    def test_results_identical_with_and_without(self):
        data = list(range(40))

        def run(enable):
            session = chained_session(enable)
            return sorted(
                session.from_collection(data)
                .map(lambda x: x + 1)
                .map_partition(lambda p: [x for x in p if x % 2 == 0])
                .map_partition(lambda p: [y for x in p for y in (x, x)])
                .collect().value)

        assert run(True) == run(False)

    def test_chaining_reduces_subtasks_and_time(self):
        data = list(range(100))

        def run(enable):
            session = chained_session(enable)
            ds = session.from_collection(data, element_nbytes=8.0,
                                         scale=100.0)
            for _ in range(4):
                ds = ds.map(lambda x: x, cost=OpCost(flops_per_element=5.0))
            return ds.count()

        chained = run(True)
        unchained = run(False)
        assert chained.value == unchained.value
        assert chained.metrics.subtasks < unchained.metrics.subtasks
        assert chained.seconds < unchained.seconds

    def test_nominal_scaling_through_fused_filter(self):
        # A partition function that drops rows emits real rows (scale 1):
        # fused into a chain or not, the nominal count is the same.
        counts = []
        for chained in (True, False):
            session = chained_session(chained)
            counts.append(session.from_collection(
                list(range(100)), scale=1000.0)
                .map(lambda x: x)
                .map_partition(lambda p: [x for x in p if x % 2 == 0])
                .count().value)
        assert counts == [50.0, 50.0]

    def test_chain_visible_in_spans(self):
        session = chained_session(True)
        result = session.from_collection([1, 2, 3]) \
            .map(lambda x: x, name="a").map(lambda x: x, name="b").count()
        names = [s.name for s in result.metrics.operator_spans.values()]
        assert any(n.startswith("chain(") for n in names)
