"""Tests for concurrent multi-application execution (run_concurrent)."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec
from repro.workloads import (
    KMeansWorkload,
    PointAddWorkload,
    SpMVWorkload,
    run_concurrent,
)


def small_config():
    return ClusterConfig(n_workers=2, cpu=CPUSpec(cores=2),
                         gpus_per_worker=("c2050",))


class TestRunConcurrent:
    def test_two_apps_complete_with_correct_results(self):
        cluster = GFlinkCluster(small_config())
        apps = [
            (SpMVWorkload(nominal_elements=3000, real_elements=3000,
                          iterations=3), "gpu"),
            (KMeansWorkload(nominal_elements=4000, real_elements=4000,
                            iterations=3), "gpu"),
        ]
        results = run_concurrent(cluster, apps)
        assert len(results) == 2
        assert results[0].name == "spmv"
        assert results[1].name == "kmeans"
        # Same results as exclusive execution.
        solo = SpMVWorkload(nominal_elements=3000, real_elements=3000,
                            iterations=3).run(
            GFlinkSession(GFlinkCluster(small_config())), "gpu")
        assert np.allclose(np.asarray(results[0].value, float),
                           np.asarray(solo.value, float), atol=1e-6)

    def test_mixed_cpu_gpu_apps(self):
        cluster = GFlinkCluster(small_config())
        apps = [
            (PointAddWorkload(nominal_elements=2000, real_elements=2000,
                              iterations=2), "cpu"),
            (PointAddWorkload(nominal_elements=2000, real_elements=2000,
                              iterations=2, path="/pointadd/b",
                              seed=7), "gpu"),
        ]
        results = run_concurrent(cluster, apps)
        assert all(r.iterations == 2 for r in results)

    def test_concurrency_slower_than_exclusive(self):
        def exclusive_time():
            cluster = GFlinkCluster(small_config())
            wl = SpMVWorkload(nominal_elements=20e6, real_elements=4000,
                              iterations=3)
            return wl.run(GFlinkSession(cluster), "gpu").total_seconds

        solo = exclusive_time()
        cluster = GFlinkCluster(small_config())
        apps = [(SpMVWorkload(nominal_elements=20e6, real_elements=4000,
                              iterations=3), "gpu"),
                (KMeansWorkload(nominal_elements=20e6, real_elements=4000,
                                iterations=3), "gpu")]
        results = run_concurrent(cluster, apps)
        spmv_concurrent = results[0].total_seconds
        assert spmv_concurrent > solo

    def test_history_isolated_per_session(self):
        cluster = GFlinkCluster(small_config())
        apps = [(PointAddWorkload(nominal_elements=1000, real_elements=1000,
                                  iterations=2), "gpu"),
                (SpMVWorkload(nominal_elements=1000, real_elements=1000,
                              iterations=2), "gpu")]
        results = run_concurrent(cluster, apps)
        names0 = {m.job_name for m in results[0].job_metrics}
        names1 = {m.job_name for m in results[1].job_metrics}
        assert all(n.startswith(("pointadd", "write")) for n in names0)
        assert all(n.startswith(("spmv", "write")) for n in names1)

    def test_gpu_cache_regions_isolated_per_app(self):
        cluster = GFlinkCluster(small_config())
        apps = [(SpMVWorkload(nominal_elements=3000, real_elements=3000,
                              iterations=2), "gpu"),
                (SpMVWorkload(nominal_elements=3000, real_elements=3000,
                              iterations=2, path="/spmv/other",
                              seed=11), "gpu")]
        run_concurrent(cluster, apps)
        for gm in cluster.gpu_managers():
            apps_with_regions = set(gm.gmm.apps())
            # Each app cached under its own app id.
            assert len(apps_with_regions) >= 1
            for app in apps_with_regions:
                assert app.startswith("app-")

    @pytest.mark.parametrize("bad", ["GPU", "tpu", None])
    def test_mode_checked_before_anything_is_prepared(self, bad):
        """The check ``Workload.run`` makes, made for every app before any
        input is generated: a driver reads ``mode == "gpu"``, so any other
        spelling would run the CPU plan under a "GPU" label."""
        cluster = GFlinkCluster(small_config())
        good = SpMVWorkload(nominal_elements=1000, real_elements=1000,
                            iterations=1)
        bad_app = KMeansWorkload(nominal_elements=1000, real_elements=1000,
                                 iterations=1)
        with pytest.raises(ConfigError, match="mode must be 'cpu' or 'gpu'"):
            run_concurrent(cluster, [(good, "gpu"), (bad_app, bad)])
        assert not cluster.hdfs.exists(good.path)
        assert not cluster.hdfs.exists(bad_app.path)
