"""Calibration sensitivity: the reproduction's *shapes* must not hinge on
any single constant.

EXPERIMENTS.md's qualitative claims (GPU wins on iterative workloads, the
cache removes re-uploads, speedup grows with input) are supposed to emerge
from the system's structure.  Here we perturb the main calibration constants
by ±25% and assert the shapes survive — only the absolute factors may move.
"""

import functools

import pytest

from repro.core import GFlinkCluster, GFlinkSession
from repro.core.channels import CommCosts
from repro.core.gpumanager import GPUManagerConfig
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.workloads import KMeansWorkload, SpMVWorkload


@functools.cache
def kmeans_seconds(serde_scale=1.0, overhead_scale=1.0, jni_scale=1.0,
                   sizes=(30e6, 90e6)):
    """``[(cpu_s, gpu_s)]`` per size under the perturbed constants.

    The iterator overhead is scaled where it is *charged*: KMeans' two
    per-point operators pass their own ``CPU_OVERHEAD_S`` through
    ``OpCost.element_overhead_s`` and never read
    ``FlinkConfig.element_overhead_s`` (only default-``OpCost`` operators
    fall back to it), so scaling the config field alone perturbs nothing.
    """
    class Perturbed(KMeansWorkload):
        CPU_OVERHEAD_S = KMeansWorkload.CPU_OVERHEAD_S * overhead_scale

    flink = FlinkConfig(serde_bps=0.8e9 * serde_scale,
                        element_overhead_s=120e-9 * overhead_scale)
    config = ClusterConfig(n_workers=4, cpu=CPUSpec(),
                           gpus_per_worker=("c2050", "c2050"), flink=flink)
    gpu_config = GPUManagerConfig(
        comm_costs=CommCosts(jni_call_s=0.155e-6 * jni_scale,
                             serde_bps=0.8e9 * serde_scale))
    seconds = []
    for nominal in sizes:
        times = {}
        for mode in ("cpu", "gpu"):
            cluster = GFlinkCluster(config, gpu_config=gpu_config)
            wl = Perturbed(nominal_elements=nominal,
                           real_elements=6000, iterations=5)
            times[mode] = wl.run(GFlinkSession(cluster), mode).total_seconds
        seconds.append((times["cpu"], times["gpu"]))
    return seconds


def run_kmeans(serde_scale=1.0, overhead_scale=1.0, jni_scale=1.0):
    return [cpu / gpu for cpu, gpu in
            kmeans_seconds(serde_scale, overhead_scale, jni_scale)]


class TestShapeRobustness:
    @pytest.mark.parametrize("serde_scale,overhead_scale,jni_scale", [
        (1.0, 1.0, 1.0),
        (0.75, 1.0, 1.0),
        (1.25, 1.0, 1.0),
        (1.0, 0.75, 1.0),
        (1.0, 1.25, 1.0),
        (1.0, 1.0, 4.0),   # even a 4x JNI cost barely matters
    ])
    def test_kmeans_shape_survives_perturbation(self, serde_scale,
                                                overhead_scale, jni_scale):
        small, large = run_kmeans(serde_scale, overhead_scale, jni_scale)
        # GPU wins at every size and the win grows with input size.
        assert small > 1.5
        assert large > small

    def test_every_axis_moves_the_makespan_it_prices(self):
        """The negative half: a perturbation that perturbs nothing would
        let the shape test pass vacuously.  Serde and iterator overhead are
        CPU-path costs (slower serde, dearer iterator: longer), the JNI
        call a GPU-path one that the CPU path never pays."""
        # Positional, as run_kmeans calls it: the shape test's runs are
        # the cache's.
        base = kmeans_seconds(1.0, 1.0, 1.0)
        for size, (cpu, gpu) in enumerate(base):
            assert kmeans_seconds(0.75, 1.0, 1.0)[size][0] > cpu
            assert kmeans_seconds(1.25, 1.0, 1.0)[size][0] < cpu
            low = kmeans_seconds(1.0, 0.75, 1.0)[size][0]
            high = kmeans_seconds(1.0, 1.25, 1.0)[size][0]
            assert low < cpu < high
            # The per-point iterator is most of the CPU path: a quarter
            # off it is far more than rounding.
            assert (high - low) / cpu > 0.2
            jni = kmeans_seconds(1.0, 1.0, 4.0)[size]
            assert jni[0] == cpu and jni[1] > gpu

    def test_cache_benefit_survives_slow_pcie(self):
        # Halve PCIe bandwidth via a custom spec? The spec is frozen; the
        # equivalent stress is quadrupling the data per GPU: the cache's
        # *relative* benefit should only grow.
        def pcie_heavy(cache):
            cluster = GFlinkCluster(ClusterConfig(
                n_workers=1, cpu=CPUSpec(),
                gpus_per_worker=("c2050",)))
            wl = SpMVWorkload(nominal_elements=5e6, real_elements=5000,
                              iterations=5, gpu_cache=cache)
            return wl.run(GFlinkSession(cluster), "gpu").total_seconds

        assert pcie_heavy(True) < pcie_heavy(False)
