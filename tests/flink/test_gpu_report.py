"""Tests for the GPU cache statistics."""

import numpy as np

from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec
from repro.gpu import KernelSpec


class TestGpuReport:
    def test_report_after_gpu_job(self):
        cluster = GFlinkCluster(ClusterConfig(
            n_workers=2, cpu=CPUSpec(cores=2),
            gpus_per_worker=("c2050",)))
        session = GFlinkSession(cluster)
        session.register_kernel(KernelSpec(
            "double", lambda i, p: {"out": i["in"] * 2.0},
            flops_per_element=2.0, efficiency=0.5))
        data = np.arange(2000, dtype=np.float64)
        ds = session.from_collection(data, element_nbytes=8,
                                     parallelism=2).persist()
        ds.materialize()
        ds.gpu_map_partition("double", cache=True,
                             cache_key_base="r").count()
        ds.gpu_map_partition("double", cache=True,
                             cache_key_base="r").count()
        # Cache state is read through the public API only; the second run
        # hit the cache.
        gm = cluster.gpu_managers()[0]
        assert len(gm.gmm.apps()) == 1
        stats = gm.gmm.cache_stats()
        assert set(stats) == {d.index for d in gm.devices}
        total_probes = sum(s.probes for s in stats.values())
        assert total_probes > 0
        assert any(s.hit_rate is not None and s.hit_rate > 0
                   for s in stats.values())

