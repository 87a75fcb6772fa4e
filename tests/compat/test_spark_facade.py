"""Tests for the Spark-flavoured facade (paper §3.6)."""

import numpy as np
import pytest

from repro.compat import SparkContext
from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec
from repro.gpu import KernelSpec


@pytest.fixture
def sc():
    cluster = GFlinkCluster(ClusterConfig(
        n_workers=2, cpu=CPUSpec(cores=2), gpus_per_worker=("c2050",)))
    return SparkContext(cluster, app_name="test-app")


class TestRDDBasics:
    def test_parallelize_collect(self, sc):
        assert sorted(sc.parallelize([3, 1, 2]).collect()) == [1, 2, 3]

    def test_map_filter_chain(self, sc):
        out = sc.parallelize(range(10)) \
            .map(lambda x: x * 2) \
            .filter(lambda x: x > 10) \
            .collect()
        assert sorted(out) == [12, 14, 16, 18]

    def test_flat_map(self, sc):
        out = sc.parallelize(["a b", "c"]) \
            .flat_map(lambda s: s.split()).collect()
        assert sorted(out) == ["a", "b", "c"]

    def test_count(self, sc):
        assert sc.parallelize(range(37)).count() == 37

    def test_reduce(self, sc):
        assert sc.parallelize(range(1, 11)).reduce(lambda a, b: a + b) == 55

    def test_first_and_take(self, sc):
        rdd = sc.parallelize(range(100))
        assert rdd.first() in range(100)
        assert len(rdd.take(5)) == 5

    def test_distinct_union(self, sc):
        a = sc.parallelize([1, 1, 2])
        b = sc.parallelize([2, 3])
        assert sorted(a.union(b).distinct().collect()) == [1, 2, 3]

    def test_metrics_exposed(self, sc):
        sc.parallelize([1]).count()
        assert sc.last_job_metrics is not None
        assert sc.last_job_metrics.makespan > 0


class TestPairRDD:
    def test_reduce_by_key(self, sc):
        data = [("a", 1), ("b", 2), ("a", 3)]
        out = dict(sc.parallelize(data)
                   .reduce_by_key(lambda x, y: x + y).collect())
        assert out == {"a": 4, "b": 2}

    def test_group_by_key(self, sc):
        data = [("k", 1), ("k", 2), ("j", 9)]
        out = dict(sc.parallelize(data).group_by_key().collect())
        assert sorted(out["k"]) == [1, 2]
        assert out["j"] == [9]

    def test_join(self, sc):
        left = sc.parallelize([("a", 1), ("b", 2)])
        right = sc.parallelize([("a", 10)])
        out = left.join(right).collect()
        assert out == [("a", (1, 10))]

    def test_wordcount_in_spark_style(self, sc):
        lines = ["to be or not", "to be"]
        counts = dict(
            sc.parallelize(lines)
            .flat_map(lambda line: line.split())
            .map(lambda w: (w, 1))
            .reduce_by_key(lambda a, b: a + b)
            .collect())
        assert counts == {"to": 2, "be": 2, "or": 1, "not": 1}


class TestGpuExtensions:
    def test_gpu_map_partitions_on_spark_api(self, sc):
        sc.register_kernel(KernelSpec(
            "double", lambda i, p: {"out": i["in"] * 2.0},
            flops_per_element=2.0, efficiency=0.5))
        data = np.arange(100, dtype=np.float64)
        out = sc.parallelize(data, element_nbytes=8.0).cache() \
            .gpu_map_partitions("double").collect()
        assert sorted(out) == sorted((data * 2).tolist())
        assert sc.last_job_metrics.pcie_bytes > 0

    def test_cache_reuses_across_actions(self, sc):
        rdd = sc.hdfs_rdd = None
        data = np.arange(1000, dtype=np.float64)
        rdd = sc.parallelize(data, element_nbytes=8.0).cache()
        rdd.count()
        first = sc.last_job_metrics
        rdd.count()
        second = sc.last_job_metrics
        # Cached lineage: the second action skips recomputation entirely.
        assert second.subtasks < first.subtasks

    def test_save_to_hdfs(self, sc):
        path = "/spark/out"
        sc.parallelize([1, 2, 3], element_nbytes=8.0) \
            .save_as_hdfs_file(path)
        assert sc.cluster.hdfs.exists(path)


def _keep_even(bufs, params):
    block = bufs["in"]
    return {"out": block[block % 2 == 0]}


def _load(cluster):
    cluster.load_hdfs_file("/in", [(list(range(50)), 400),
                                   (list(range(50, 100)), 400)])


#: facade method -> (build on the RDD side, the GDST call it delegates to)
DELEGATIONS = {
    "hdfs_file": (
        lambda sc: sc.hdfs_file("/in", 8.0, scale=10.0, min_partitions=2),
        lambda s: s.read_hdfs("/in", 8.0, scale=10.0, parallelism=2)),
    "map_partitions": (
        lambda sc: sc.parallelize(range(40), 4)
        .map_partitions(lambda rows: [sum(rows)]),
        lambda s: s.from_collection(range(40), parallelism=4)
        .map_partition(lambda rows: [sum(rows)])),
    "cartesian": (
        lambda sc: sc.parallelize([1, 2, 3], 2)
        .cartesian(sc.parallelize("ab", 2)),
        lambda s: s.from_collection([1, 2, 3], parallelism=2)
        .cross(s.from_collection("ab", parallelism=2))),
    "sort_by": (
        lambda sc: sc.parallelize([5, 3, 9, 1, 7, 2], 2)
        .sort_by(lambda x: -x, ascending=False),
        lambda s: s.from_collection([5, 3, 9, 1, 7, 2], parallelism=2)
        .sort_partition(key_fn=lambda x: -x, reverse=True)),
    "gpu_filter": (
        lambda sc: sc.parallelize(np.arange(64, dtype=np.int64), 2,
                                  element_nbytes=8.0, scale=100.0)
        .gpu_filter("keep_even"),
        lambda s: s.from_collection(np.arange(64, dtype=np.int64),
                                    element_nbytes=8.0, scale=100.0,
                                    parallelism=2)
        .gpu_filter("keep_even")),
}


class TestEveryMethodIsOneDelegation:
    """The facade is a veneer: a method's answer *and its simulated clock*
    are those of the GDST call it forwards to, run on a twin cluster."""

    @pytest.mark.parametrize("method", sorted(DELEGATIONS))
    def test_same_rows_same_clock_as_the_gdst_call(self, sc, method):
        via_rdd, via_gdst = DELEGATIONS[method]
        session = GFlinkSession(GFlinkCluster(sc.cluster.config),
                                app_id=sc.app_name)
        kernel = KernelSpec("keep_even", _keep_even,
                            flops_per_element=1.0, efficiency=0.5)
        sc.register_kernel(kernel)
        session.register_kernel(kernel)
        _load(sc.cluster)
        _load(session.cluster)

        rows = via_rdd(sc).collect()
        expected = via_gdst(session).collect()
        assert len(rows) > 0
        assert [repr(r) for r in rows] == [repr(r) for r in expected.value]
        assert sc.last_job_metrics.makespan == expected.metrics.makespan
        assert sc.last_job_metrics.subtasks == expected.metrics.subtasks
