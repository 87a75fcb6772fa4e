"""Tests for a GPU partition function that drops rows, and for the
output-scale semantics."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec
from repro.gpu import KernelSpec


def make_session():
    config = ClusterConfig(n_workers=2, cpu=CPUSpec(cores=2),
                           gpus_per_worker=("c2050",))
    cluster = GFlinkCluster(config)
    session = GFlinkSession(cluster)
    session.register_kernel(KernelSpec(
        "expand2", lambda i, p: {"out": np.repeat(i["in"], 2)},
        flops_per_element=2.0, efficiency=0.5))
    session.register_kernel(KernelSpec(
        "keep_even", lambda i, p: {"out": i["in"][i["in"] % 2 == 0]},
        flops_per_element=1.0, efficiency=0.5))
    return session


class TestGpuFilter:
    def test_filter_result(self):
        session = make_session()
        data = np.arange(20, dtype=np.int64)
        result = session.from_collection(data, element_nbytes=8) \
            .gpu_map_partition("keep_even").collect()
        assert sorted(result.value) == list(range(0, 20, 2))

    def test_filter_composes_with_cpu_ops(self):
        session = make_session()
        data = np.arange(12, dtype=np.int64)
        result = session.from_collection(data, element_nbytes=8) \
            .gpu_map_partition("keep_even") \
            .map(lambda x: int(x) + 1) \
            .collect()
        assert sorted(result.value) == [1, 3, 5, 7, 9, 11]


class TestScaleSemantics:
    def test_invalid_semantics_rejected(self):
        session = make_session()
        ds = session.from_collection(np.arange(4.0), element_nbytes=8)
        with pytest.raises(ConfigError):
            ds.gpu_map_partition("expand2", scale_semantics="bogus")

    def test_reduce_semantics_forces_real_scale(self):
        session = make_session()
        session.register_kernel(KernelSpec(
            "passthrough", lambda i, p: {"out": i["in"]},
            flops_per_element=1.0, efficiency=0.5))
        data = np.arange(50, dtype=np.float64)
        result = session.from_collection(data, element_nbytes=8,
                                         scale=100.0) \
            .gpu_map_partition("passthrough",
                               scale_semantics="reduce").count()
        assert result.value == pytest.approx(50)  # real count, unscaled

    def test_map_semantics_keeps_scale(self):
        session = make_session()
        session.register_kernel(KernelSpec(
            "ident", lambda i, p: {"out": i["in"]},
            flops_per_element=1.0, efficiency=0.5))
        data = np.arange(50, dtype=np.float64)
        result = session.from_collection(data, element_nbytes=8,
                                         scale=100.0) \
            .gpu_map("ident").count()
        assert result.value == pytest.approx(5_000)
