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

    def test_count(self, sc):
        assert sc.parallelize(range(37)).count() == 37

    def test_metrics_exposed(self, sc):
        sc.parallelize([1]).count()
        assert sc.last_job_metrics is not None
        assert sc.last_job_metrics.makespan > 0


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


def _keep_even(bufs, params):
    block = bufs["in"]
    return {"out": block[block % 2 == 0]}


#: facade method -> (build on the RDD side, the GDST call it delegates to)
DELEGATIONS = {
    "gpu_map_partitions": (
        lambda sc: sc.parallelize(np.arange(64, dtype=np.int64), 2,
                                  element_nbytes=8.0, scale=100.0)
        .gpu_map_partitions("keep_even"),
        lambda s: s.from_collection(np.arange(64, dtype=np.int64),
                                    element_nbytes=8.0, scale=100.0,
                                    parallelism=2)
        .gpu_map_partition("keep_even")),
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

        rows = via_rdd(sc).collect()
        expected = via_gdst(session).collect()
        assert len(rows) > 0
        assert [repr(r) for r in rows] == [repr(r) for r in expected.value]
        assert sc.last_job_metrics.makespan == expected.metrics.makespan
        assert sc.last_job_metrics.subtasks == expected.metrics.subtasks
