"""Tests for the extended DataSet operators: union, distinct, first,
sort_partition, cross, co_group and the aggregate shorthands."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.flink import FlinkSession
from tests.flink.conftest import make_cluster, make_payload


class TestUnion:
    def test_union_concatenates(self, session):
        a = session.from_collection([1, 2, 3])
        b = session.from_collection([4, 5])
        result = a.union(b).collect()
        assert sorted(result.value) == [1, 2, 3, 4, 5]

    def test_union_then_transform(self, session):
        a = session.from_collection([1, 2])
        b = session.from_collection([3])
        result = a.union(b).map(lambda x: x * 10).collect()
        assert sorted(result.value) == [10, 20, 30]

    def test_union_count_respects_scale(self, session):
        a = session.from_collection([1] * 10, scale=100.0)
        b = session.from_collection([2] * 5, scale=10.0)
        result = a.union(b).count()
        assert result.value == pytest.approx(10 * 100 + 5 * 10)

    def test_union_is_cheap(self, session):
        # No serde/shuffle: union of co-located partitions moves no bytes.
        a = session.from_collection(list(range(100)), element_nbytes=1000)
        b = session.from_collection(list(range(100)), element_nbytes=1000)
        result = a.union(b).count()
        assert result.metrics.shuffle_bytes < 10_000

    def test_cross_session_union_rejected(self, session):
        other = FlinkSession(make_cluster())
        with pytest.raises(ValueError):
            session.from_collection([1]).union(other.from_collection([2]))


class TestDistinct:
    def test_distinct_values(self, session):
        data = [1, 2, 2, 3, 3, 3, 4]
        result = session.from_collection(data).distinct().collect()
        assert sorted(result.value) == [1, 2, 3, 4]

    def test_distinct_by_key(self, session):
        data = [("a", 1), ("a", 2), ("b", 3)]
        result = session.from_collection(data) \
            .distinct(key_fn=lambda kv: kv[0]).collect()
        keys = sorted(kv[0] for kv in result.value)
        assert keys == ["a", "b"]

    @pytest.mark.parametrize("kind", ["list", "2d", "struct"])
    @pytest.mark.parametrize("parallelism", [1, 2, 5])
    def test_distinct_values_of_a_block(self, kind, parallelism):
        """Without a key a block row is the tuple of its fields: a row list,
        a 2-D block and a GStruct block of the same rows give the same rows,
        through a map of the block too (a block row is not hashable)."""
        rows = [(1, 2.0), (1, 2.0), (2, 3.0), (1, 2.0), (2, 5.0)]
        data = FlinkSession(make_cluster()).from_collection(
            make_payload(kind, rows), parallelism=parallelism)
        for ds in (data, data.map(lambda r: r)):
            assert sorted(tuple(np.asarray(r).tolist()) if kind == "2d"
                          else tuple(r) for r in ds.distinct().collect().value) \
                == [(1, 2.0), (2, 3.0), (2, 5.0)]

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=60))
    @settings(max_examples=15, deadline=None)
    def test_distinct_property(self, data):
        session = FlinkSession(make_cluster())
        result = session.from_collection(list(data)).distinct().collect()
        assert sorted(result.value) == sorted(set(data))


class TestFirstN:
    def test_first_n(self, session):
        result = session.from_collection(list(range(100))).first(5).collect()
        assert len(result.value) == 5
        assert set(result.value) <= set(range(100))

    def test_first_more_than_available(self, session):
        result = session.from_collection([1, 2]).first(10).collect()
        assert sorted(result.value) == [1, 2]

    def test_first_invalid_n(self, session):
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError):
            session.from_collection([1]).first(0)

    def test_first_ships_little(self, session):
        ds = session.from_collection(list(range(1000)),
                                     element_nbytes=10_000)
        result = ds.first(3).collect()
        # Producers truncate before shipping: far less than the dataset.
        assert result.metrics.shuffle_bytes < 1000 * 10_000 / 2


class TestSortPartition:
    def test_each_partition_sorted(self, session):
        data = [5, 3, 8, 1, 9, 2, 7, 4]
        result = session.from_collection(data, parallelism=2) \
            .map_partition(lambda e: list(e)) \
            .sort_partition().map_partition(
                lambda e: [list(e)]).collect()
        for partition in result.value:
            assert partition == sorted(partition)

    def test_sort_by_key_reverse(self, session):
        data = [("a", 3), ("b", 1), ("c", 2)]
        result = session.from_collection(data, parallelism=1) \
            .sort_partition(key_fn=lambda kv: kv[1], reverse=True).collect()
        assert [kv[1] for kv in result.value] == [3, 2, 1]

    def test_sort_ndarray_partition(self, session):
        data = np.array([3.0, 1.0, 2.0])
        result = session.from_collection(data, parallelism=1) \
            .sort_partition().collect()
        assert result.value == [1.0, 2.0, 3.0]

    def test_sort_charges_nlogn(self):
        from repro.flink import OpCost
        cluster = make_cluster(n_workers=1, cores=1)
        session = FlinkSession(cluster)
        ds = session.from_collection(list(range(64)), element_nbytes=0.0,
                                     scale=1e5, parallelism=1)
        result = ds.sort_partition(
            cost=OpCost(flops_per_element=0.0), name="s").count()
        span = result.metrics.span_of("s").seconds
        n = 64 * 1e5
        expected = n * np.log2(n) * cluster.config.flink.element_overhead_s
        overhead = (cluster.config.flink.task_schedule_s
                    + cluster.config.flink.task_deploy_s)
        assert span == pytest.approx(expected + overhead, rel=1e-6)


class TestCrossAndCoGroup:
    def test_cross_product(self, session):
        a = session.from_collection([1, 2], parallelism=1)
        b = session.from_collection(["x", "y"], parallelism=1)
        result = a.cross(b).collect()
        assert sorted(result.value) == [(1, "x"), (1, "y"),
                                        (2, "x"), (2, "y")]

    def test_cross_with_fn(self, session):
        a = session.from_collection([1, 2], parallelism=1)
        b = session.from_collection([10], parallelism=1)
        result = a.cross(b, cross_fn=lambda l, r: l * r).collect()
        assert sorted(result.value) == [10, 20]

    def test_co_group(self, session):
        left = session.from_collection([("k1", 1), ("k2", 2), ("k1", 3)])
        right = session.from_collection([("k1", 10), ("k3", 30)])
        result = left.co_group(
            right, lambda kv: kv[0], lambda kv: kv[0],
            lambda key, ls, rs: (key, len(ls), len(rs))).collect()
        assert sorted(result.value) == [("k1", 2, 1), ("k2", 1, 0),
                                        ("k3", 0, 1)]


class TestAggregateShorthands:
    def test_sum(self, session):
        result = session.from_collection(list(range(10))).sum().collect()
        assert result.value == [45]

    def test_sum_with_extractor(self, session):
        data = [("a", 2), ("b", 3)]
        result = session.from_collection(data) \
            .sum(lambda kv: kv[1]).collect()
        assert result.value == [5]

    def test_min_max(self, session):
        data = [("a", 5), ("b", 1), ("c", 9)]
        lo = session.from_collection(data).min(lambda kv: kv[1]).collect()
        hi = session.from_collection(data).max(lambda kv: kv[1]).collect()
        assert lo.value == [("b", 1)]
        assert hi.value == [("c", 9)]

    @given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1,
                    max_size=50))
    @settings(max_examples=15, deadline=None)
    def test_sum_property(self, data):
        session = FlinkSession(make_cluster())
        result = session.from_collection(list(data)).sum().collect()
        assert result.value == [sum(data)]
