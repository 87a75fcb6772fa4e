"""Integration tests: GDST operators on a full GFlink cluster."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.core import GFlinkCluster, GFlinkSession
from repro.core.channels import CommMode
from repro.core.gdst import ExtraInput
from repro.flink import ClusterConfig, CPUSpec, FlinkSession
from repro.gpu import KernelSpec


def make_gflink(n_workers=2, cores=2, gpus=("c2050",)):
    config = ClusterConfig(n_workers=n_workers, cpu=CPUSpec(cores=cores),
                           gpus_per_worker=tuple(gpus))
    cluster = GFlinkCluster(config)
    session = GFlinkSession(cluster)
    session.register_kernel(KernelSpec(
        "double", lambda i, p: {"out": i["in"] * 2.0},
        flops_per_element=2.0, efficiency=0.5))
    session.register_kernel(KernelSpec(
        "block_sum", lambda i, p: {"out": np.array([float(np.sum(i["in"]))])},
        flops_per_element=1.0, efficiency=0.5))
    session.register_kernel(KernelSpec(
        "shift", lambda i, p: {"out": i["in"] + i["offset"][0]},
        flops_per_element=1.0, efficiency=0.5))
    return cluster, session


class TestGpuMapPartition:
    def test_functional_result(self):
        _, session = make_gflink()
        data = np.arange(200, dtype=np.float64)
        result = session.from_collection(data, element_nbytes=8,
                                         parallelism=4) \
            .gpu_map_partition("double").collect()
        assert np.allclose(np.sort(result.value), np.sort(data * 2))

    def test_gpu_metrics_populated(self):
        cluster, session = make_gflink()
        data = np.arange(1000, dtype=np.float64)
        result = session.from_collection(data, element_nbytes=8, scale=1e4,
                                         parallelism=4) \
            .gpu_map_partition("double").count()
        assert result.metrics.gpu_kernel_s > 0
        assert result.metrics.pcie_bytes > 0
        assert cluster.total_kernel_seconds() > 0

    def test_cpu_and_gpu_ops_compose(self):
        _, session = make_gflink()
        data = np.arange(100, dtype=np.float64)
        result = session.from_collection(data, element_nbytes=8,
                                         parallelism=2) \
            .gpu_map_partition("double") \
            .map(lambda x: x + 1) \
            .collect()
        assert sorted(result.value) == sorted((data * 2 + 1).tolist())

    def test_no_gpu_worker_raises(self):
        config = ClusterConfig(n_workers=1, gpus_per_worker=())
        cluster = GFlinkCluster(config)
        session = GFlinkSession(cluster)
        ds = session.from_collection(np.arange(4.0), element_nbytes=8)
        with pytest.raises(ConfigError, match="GPUManager"):
            ds.gpu_map_partition("double").collect()

    def test_extra_inputs(self):
        _, session = make_gflink()
        data = np.arange(10, dtype=np.float64)
        offset = ExtraInput.constant(np.array([5.0]), element_nbytes=8)
        result = session.from_collection(data, element_nbytes=8,
                                         parallelism=2) \
            .gpu_map_partition("shift", extra_inputs={"offset": offset}) \
            .collect()
        assert sorted(result.value) == sorted((data + 5).tolist())

    def test_params_fn_reevaluated_each_job(self):
        # Per-job values: each job builds its GPU operator with that job's
        # ``params`` (as the iterative workloads do inside their loop).
        _, session = make_gflink()
        session.register_kernel(KernelSpec(
            "scale_by_param", lambda i, p: {"out": i["in"] * p["factor"]},
            flops_per_element=1.0, efficiency=0.5))
        state = {"factor": 2.0}
        data = np.arange(4, dtype=np.float64)
        ds = session.from_collection(data, element_nbytes=8,
                                     parallelism=1).persist()
        ds.materialize()
        first = ds.gpu_map_partition("scale_by_param",
                                     params=dict(state)).collect()
        state["factor"] = 10.0
        second = ds.gpu_map_partition("scale_by_param",
                                      params=dict(state)).collect()
        assert sorted(first.value) == sorted((data * 2).tolist())
        assert sorted(second.value) == sorted((data * 10).tolist())


class TestGpuReduce:
    def test_gpu_reduce_correct(self):
        _, session = make_gflink()
        data = np.arange(1000, dtype=np.float64)
        result = session.from_collection(data, element_nbytes=8,
                                         parallelism=4) \
            .gpu_reduce("block_sum", final_fn=lambda a, b: a + b) \
            .collect()
        assert result.value[0] == pytest.approx(np.sum(data))


class TestCacheAcrossJobs:
    def test_iterations_reuse_gpu_cache(self):
        cluster, session = make_gflink(n_workers=1, cores=2)
        data = np.arange(50_000, dtype=np.float64)
        ds = session.from_collection(data, element_nbytes=8, scale=100.0,
                                     parallelism=2).persist()
        ds.materialize()
        pcie = []
        for _ in range(3):
            before = cluster.total_pcie_bytes()
            ds.gpu_map_partition("double", cache=True).count()
            pcie.append(cluster.total_pcie_bytes() - before)
        # Iteration 1 uploads input + downloads output; later iterations
        # only download output.
        assert pcie[1] < pcie[0]
        assert pcie[2] == pcie[1]

    def test_release_gpu_cache_frees_regions(self):
        cluster, session = make_gflink(n_workers=1)
        data = np.arange(1000, dtype=np.float64)
        ds = session.from_collection(data, element_nbytes=8,
                                     parallelism=2).persist()
        ds.materialize()
        ds.gpu_map_partition("double", cache=True).count()
        gm = cluster.gpu_managers()[0]
        assert gm.devices[0].memory.allocated > 0  # cache region held
        session.release_gpu_cache()
        assert gm.devices[0].memory.allocated == 0

    def test_distinct_apps_have_distinct_cache_regions(self):
        cluster, _ = make_gflink(n_workers=1)
        s1 = GFlinkSession(cluster)
        s2 = GFlinkSession(cluster)
        assert s1.app_id != s2.app_id


class TestCommModeAblation:
    def test_gflink_mode_faster_than_heap_and_rpc(self):
        times = {}
        for mode in (CommMode.GFLINK, CommMode.JNI_HEAP, CommMode.RPC):
            _, session = make_gflink(n_workers=1, cores=1)
            data = np.arange(100_000, dtype=np.float64)
            ds = session.from_collection(data, element_nbytes=8, scale=100.0,
                                         parallelism=1).persist()
            ds.materialize()
            r = ds.gpu_map_partition("double", comm_mode=mode,
                                     name="m").count()
            times[mode] = r.metrics.span_of("m").seconds
        assert times[CommMode.GFLINK] < times[CommMode.JNI_HEAP]
        assert times[CommMode.JNI_HEAP] < times[CommMode.RPC]


class TestGDSTTypePropagation:
    def test_cpu_transform_of_gdst_stays_gdst(self):
        from repro.core.gdst import GDST
        _, session = make_gflink()
        ds = session.from_collection(np.arange(4.0), element_nbytes=8)
        assert isinstance(ds, GDST)
        assert isinstance(ds.map(lambda x: x), GDST)
        assert isinstance(ds.gpu_map_partition("double"), GDST)
