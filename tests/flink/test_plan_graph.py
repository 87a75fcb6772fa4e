"""Unit tests for plan/graph internals: topology, parallelism resolution,
operator metadata, serialization accounting."""

import pytest

from repro.common.errors import ConfigError
from repro.flink.graph import ExecutionGraph
from repro.flink.partition import Partition
from repro.flink.plan import (
    CollectionSource,
    CollectSink,
    MapOp,
    OpCost,
    Operator,
    ReduceOp,
    ShipStrategy,
    topological_order,
)
from repro.flink.serialization import Serializer


class TestTopologicalOrder:
    def test_linear_chain(self):
        src = CollectionSource([1], 8.0)
        m1 = MapOp(src, lambda x: x, OpCost())
        m2 = MapOp(m1, lambda x: x, OpCost())
        sink = CollectSink(m2)
        order = topological_order([sink])
        assert order == [src, m1, m2, sink]

    def test_diamond(self):
        src = CollectionSource([1], 8.0)
        left = MapOp(src, lambda x: x, OpCost())
        right = MapOp(src, lambda x: x, OpCost())
        merge = Operator("merge", [left, right], None,
                         [ShipStrategy.FORWARD, ShipStrategy.FORWARD])
        order = topological_order([CollectSink(merge)])
        assert order.index(src) < order.index(left)
        assert order.index(src) < order.index(right)
        assert order.index(left) < order.index(merge)
        assert order.index(right) < order.index(merge)

    def test_shared_subplan_visited_once(self):
        src = CollectionSource([1], 8.0)
        m = MapOp(src, lambda x: x, OpCost())
        s1, s2 = CollectSink(m), CollectSink(m)
        order = topological_order([s1, s2])
        assert order.count(m) == 1
        assert order.count(src) == 1

    def test_cycle_detected(self):
        src = CollectionSource([1], 8.0)
        m = MapOp(src, lambda x: x, OpCost())
        m.inputs.append(m)  # deliberately corrupt the plan
        m.strategies.append(ShipStrategy.FORWARD)
        with pytest.raises(ConfigError, match="cycle"):
            topological_order([m])


class TestExecutionGraph:
    def test_default_parallelism_applied(self):
        src = CollectionSource([1, 2, 3], 8.0)
        graph = ExecutionGraph([CollectSink(src)], default_parallelism=6)
        assert graph.job_vertex(src).parallelism == 6

    def test_forward_inherits_parallelism(self):
        src = CollectionSource([1], 8.0, parallelism=3)
        m = MapOp(src, lambda x: x, OpCost())
        graph = ExecutionGraph([CollectSink(m)], default_parallelism=8)
        assert graph.job_vertex(m).parallelism == 3

    def test_forward_parallelism_mismatch_rejected(self):
        # Partition i feeds subtask i: a FORWARD edge between unequal
        # parallelisms is refused when the graph is built, not mid-job.
        src = CollectionSource(list(range(10)), 8.0, parallelism=2)
        m = MapOp(src, lambda x: x, OpCost(), parallelism=3)
        with pytest.raises(ValueError, match="FORWARD needs equal"):
            ExecutionGraph([CollectSink(m)], default_parallelism=8)

    def test_reduce_is_singleton(self):
        src = CollectionSource([1], 8.0, parallelism=4)
        red = ReduceOp(src, lambda a, b: a + b, OpCost())
        graph = ExecutionGraph([CollectSink(red)], default_parallelism=8)
        assert graph.job_vertex(red).parallelism == 1

    def test_total_subtasks(self):
        src = CollectionSource([1], 8.0, parallelism=4)
        m = MapOp(src, lambda x: x, OpCost())
        sink = CollectSink(m)
        graph = ExecutionGraph([sink], default_parallelism=4)
        assert graph.total_subtasks == 4 + 4 + 1


class TestOperatorMetadata:
    def test_out_element_nbytes_prefers_cost(self):
        src = CollectionSource([1], 8.0)
        m = MapOp(src, lambda x: x, OpCost(out_element_nbytes=99.0))
        part = Partition(0, [1, 2], element_nbytes=8.0)
        assert m.out_element_nbytes(part) == 99.0

    def test_out_element_nbytes_falls_back_to_input(self):
        src = CollectionSource([1], 8.0)
        m = MapOp(src, lambda x: x, OpCost())
        part = Partition(0, [1, 2], element_nbytes=16.0)
        assert m.out_element_nbytes(part) == 16.0

    def test_strategy_input_mismatch_rejected(self):
        src = CollectionSource([1], 8.0)
        with pytest.raises(ConfigError):
            Operator("bad", [src], None, [])

    def test_uids_unique(self):
        ops = [CollectionSource([1], 8.0) for _ in range(5)]
        assert len({op.uid for op in ops}) == 5


class TestSerializer:
    def test_times_and_accounting(self):
        ser = Serializer(serde_bps=1e9, record_overhead_s=1e-8)
        t = ser.serialize_time(1e9, nrecords=1e6)
        assert t == pytest.approx(1.0 + 0.01)
        t2 = ser.deserialize_time(5e8)
        assert t2 == pytest.approx(0.5)
        stats = ser.stats()
        assert stats.bytes_serialized == 1e9
        assert stats.bytes_deserialized == 5e8
