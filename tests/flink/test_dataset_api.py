"""Functional tests of the DataSet API on the simulated cluster."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.flink import vectorized_udf


class TestMapFilterFlatMap:
    def test_map_collect(self, session):
        result = session.from_collection(list(range(10))) \
            .map(lambda x: x * 2).collect()
        assert sorted(result.value) == [0, 2, 4, 6, 8, 10, 12, 14, 16, 18]
        assert result.seconds > 0

    def test_chained_maps(self, session):
        result = session.from_collection([1, 2, 3]) \
            .map(lambda x: x + 1).map(lambda x: x * 10).collect()
        assert sorted(result.value) == [20, 30, 40]

    def test_vectorized_map_on_ndarray(self, session):
        data = np.arange(16, dtype=np.float64)
        doubler = vectorized_udf(lambda arr: arr * 2)
        result = session.from_collection(data, element_nbytes=8) \
            .map(doubler).collect()
        assert sorted(result.value) == sorted((data * 2).tolist())

    def test_map_partition(self, session):
        result = session.from_collection(list(range(8))) \
            .map_partition(lambda elems: [sum(elems)]).collect()
        # One partial sum per partition; the total must be preserved.
        assert sum(result.value) == sum(range(8))


class TestAggregations:
    def test_group_by_reduce(self, session):
        data = [("a", 1), ("b", 2), ("a", 3), ("b", 4), ("c", 5)]
        result = session.from_collection(data) \
            .group_by(lambda kv: kv[0]) \
            .reduce(lambda x, y: (x[0], x[1] + y[1])) \
            .collect()
        assert sorted(result.value) == [("a", 4), ("b", 6), ("c", 5)]

    @pytest.mark.parametrize("pair", ["element key, vectorized reducer",
                                      "vectorized key, element reducer"])
    def test_a_mixed_keyed_pair_is_rejected_when_the_plan_is_built(
            self, session, pair):
        # A vectorized() UDF has no row form and an element one no block
        # form: the pair is two of one kind or it is no keyed reduce.
        element_key, element_sum = (lambda kv: kv[0],
                                    lambda a, b: (a[0], a[1] + b[1]))
        block_key = vectorized_udf(lambda block: block[:, 0])
        block_first = vectorized_udf(lambda block, starts: block[starts])
        key_fn, reduce_fn = ((element_key, block_first)
                             if pair.startswith("element")
                             else (block_key, element_sum))
        grouped = session.from_collection(np.ones((4, 2))).group_by(key_fn)
        with pytest.raises(ConfigError, match="keyed pair"):
            grouped.reduce(reduce_fn)

    def test_global_reduce(self, session):
        result = session.from_collection(list(range(1, 101))) \
            .reduce(lambda a, b: a + b).collect()
        assert result.value == [5050]

    def test_count(self, session):
        result = session.from_collection(list(range(37))).count()
        assert result.value == 37

    def test_count_respects_nominal_scale(self, session):
        # 100 real elements standing in for 100_000 nominal ones.
        result = session.from_collection(list(range(100)),
                                         scale=1000.0).count()
        assert result.value == pytest.approx(100_000)

    def test_wordcount_end_to_end(self, session):
        lines = ["the quick brown fox", "the lazy dog", "the fox"]
        result = session.from_collection(lines) \
            .map_partition(lambda part: [(w, 1) for line in part
                                         for w in line.split()]) \
            .group_by(lambda kv: kv[0]) \
            .reduce(lambda a, b: (a[0], a[1] + b[1])) \
            .collect()
        counts = dict(result.value)
        assert counts == {"the": 3, "quick": 1, "brown": 1, "fox": 2,
                          "lazy": 1, "dog": 1}


class TestHdfsIntegration:
    def test_read_from_hdfs(self, cluster, session):
        chunks = [(list(range(0, 50)), 400), (list(range(50, 100)), 400)]
        cluster.load_hdfs_file("/input", chunks)
        result = session.read_hdfs("/input", element_nbytes=8).collect()
        assert sorted(result.value) == list(range(100))
        assert result.metrics.hdfs_read_bytes > 0

    def test_write_to_hdfs(self, cluster, session):
        result = session.from_collection(list(range(10)), element_nbytes=8) \
            .write_hdfs("/out")
        assert result.value == "/out"
        assert cluster.hdfs.exists("/out")
        assert result.metrics.hdfs_write_bytes > 0
        # Read it back through a second job.
        readback = session.read_hdfs("/out", element_nbytes=8).collect()
        assert sorted(readback.value) == list(range(10))

    def test_hdfs_roundtrip_with_ndarray_blocks(self, cluster, session):
        data = np.arange(40, dtype=np.float64)
        cluster.load_hdfs_file(
            "/vec", [(data[:20], 160), (data[20:], 160)])
        total = session.read_hdfs("/vec", element_nbytes=8) \
            .map(vectorized_udf(lambda a: a + 1)) \
            .reduce(lambda x, y: x + y).collect()
        assert total.value[0] == pytest.approx(np.sum(data + 1))


class TestPersistence:
    def test_persisted_dataset_not_recomputed(self, cluster, session):
        chunks = [(list(range(100)), 800)]
        cluster.load_hdfs_file("/in", chunks)
        ds = session.read_hdfs("/in", element_nbytes=8).persist()
        first = ds.count()
        read_after_first = first.metrics.hdfs_read_bytes
        assert read_after_first > 0
        second = ds.count()
        assert second.metrics.hdfs_read_bytes == 0  # served from memory
        assert second.value == first.value

    def test_non_persisted_dataset_recomputed(self, cluster, session):
        cluster.load_hdfs_file("/in2", [(list(range(10)), 80)])
        ds = session.read_hdfs("/in2", element_nbytes=8)
        ds.count()
        again = ds.count()
        assert again.metrics.hdfs_read_bytes > 0

    def test_iterative_reuse_is_faster(self, cluster, session):
        cluster.load_hdfs_file("/it", [(list(range(1000)), 8_000_000)])
        ds = session.read_hdfs("/it", element_nbytes=8000).persist()
        t1 = ds.map(lambda x: x + 1).count().seconds
        t2 = ds.map(lambda x: x + 1).count().seconds
        assert t2 < t1  # later iterations skip HDFS


class TestParallelismAndErrors:
    def test_explicit_parallelism_respected(self, session):
        ds = session.from_collection(list(range(12)), parallelism=3)
        result = ds.map_partition(lambda e: [len(e)]).collect()
        assert len(result.value) == 3
        assert sum(result.value) == 12

    def test_empty_collection(self, session):
        result = session.from_collection([]).map(lambda x: x).collect()
        assert result.value == []
