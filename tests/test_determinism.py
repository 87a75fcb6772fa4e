"""Determinism: identical runs produce bit-identical simulated results.

The whole reproduction pipeline is seeded and event ordering is total
(time, priority, sequence), so any two runs of the same experiment must
agree exactly — this is what makes EXPERIMENTS.md's numbers reproducible.
"""

import numpy as np

from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec
from repro.flink.chaos import ChaosSchedule, FaultKind
from repro.workloads import KMeansWorkload, SpMVWorkload, run_concurrent
from tests.flink.conftest import assert_ports_free


def config():
    return ClusterConfig(n_workers=2, cpu=CPUSpec(cores=2),
                         gpus_per_worker=("c2050",))


class TestDeterminism:
    def test_workload_times_reproduce_exactly(self):
        def once():
            cluster = GFlinkCluster(config())
            wl = KMeansWorkload(nominal_elements=5e6, real_elements=4000,
                                iterations=4)
            return wl.run(GFlinkSession(cluster), "gpu")

        a, b = once(), once()
        assert a.iteration_seconds == b.iteration_seconds
        assert np.array_equal(np.asarray(a.value), np.asarray(b.value))

    def test_concurrent_runs_reproduce_exactly(self):
        def once():
            cluster = GFlinkCluster(config())
            apps = [(SpMVWorkload(nominal_elements=2000, real_elements=2000,
                                  iterations=2), "gpu"),
                    (KMeansWorkload(nominal_elements=2000, real_elements=2000,
                                    iterations=2), "gpu")]
            results = run_concurrent(cluster, apps)
            return [r.iteration_seconds for r in results]

        assert once() == once()

    def test_chaos_run_reproduces_exactly(self):
        """Same seed + same fault schedule -> bit-identical clock + values."""
        def once():
            cluster = GFlinkCluster(config())
            cluster.install_chaos(ChaosSchedule()
                                  .fail_gpu("worker0", 0, at=10.0,
                                            kind=FaultKind.GPU_OOM)
                                  .kill_worker("worker1", at=30.0))
            wl = KMeansWorkload(nominal_elements=5e6, real_elements=4000,
                                iterations=4)
            result = wl.run(GFlinkSession(cluster), "gpu")
            assert_ports_free(cluster.network)
            return result

        a, b = once(), once()
        assert a.iteration_seconds == b.iteration_seconds
        assert np.array_equal(np.asarray(a.value), np.asarray(b.value))

    def test_empty_chaos_schedule_leaves_clock_identical(self):
        """An installed-but-empty schedule perturbs nothing: the fault-free
        clock is bit-identical with or without the chaos machinery."""
        def once(install):
            cluster = GFlinkCluster(config())
            if install:
                cluster.install_chaos(ChaosSchedule())
            wl = KMeansWorkload(nominal_elements=5e6, real_elements=4000,
                                iterations=4)
            return wl.run(GFlinkSession(cluster), "gpu").iteration_seconds

        assert once(install=False) == once(install=True)

    def test_different_seeds_differ(self):
        def once(seed):
            cluster = GFlinkCluster(config())
            wl = KMeansWorkload(nominal_elements=5e6, real_elements=4000,
                                iterations=3, seed=seed)
            return np.asarray(wl.run(GFlinkSession(cluster), "cpu").value)

        assert not np.array_equal(once(1), once(2))
