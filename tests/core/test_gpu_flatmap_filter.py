"""Tests for a GPU partition function that drops rows, and for the
output-scale semantics."""

import numpy as np
import pytest

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
    @pytest.mark.parametrize("op", ["map_partition", "gpu_map_partition",
                                    "gpu_map"])
    def test_a_row_dropping_partition_function_emits_real_rows(self, op):
        # One output-scale rule for the CPU and the GPU partition ops: an
        # output whose row count differs from the input's is real rows,
        # scale 1, whichever op ran it.  (Every partition here drops rows;
        # one that drops rows in some partitions only is the strict xfail
        # of tests/reference/test_plans.py.)
        session = make_session()
        data = np.arange(40, dtype=np.int64)
        ds = session.from_collection(data, element_nbytes=8, scale=100.0,
                                     parallelism=2)
        if op == "map_partition":
            out = ds.map_partition(lambda part: part[part % 2 == 0])
        else:
            out = getattr(ds, op)("keep_even")
        assert sorted(out.collect().value) == list(range(0, 40, 2))
        assert out.count().value == pytest.approx(20)


    def test_reduce_semantics_forces_real_scale(self):
        # A kernel that emits partials (one per device block) changes the
        # row count: its rows are real, scale 1.
        session = make_session()
        session.register_kernel(KernelSpec(
            "partial_sum", lambda i, p: {"out": np.array([i["in"].sum()])},
            flops_per_element=1.0, efficiency=0.5))
        data = np.arange(50, dtype=np.float64)
        sums = session.from_collection(data, element_nbytes=8,
                                       scale=100.0) \
            .gpu_map_partition("partial_sum")
        partials = sums.collect().value
        assert sum(partials) == data.sum()
        assert sums.count().value == pytest.approx(len(partials))

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
