"""Fig. 7a/7b — Average running time across iterations.

* **7a** KMeans, cluster of 3 slaves, 210 M points: first iteration slow
  (HDFS read + job start), middle iterations flat and fast, last iteration
  slower again (writing results) — in both modes, with the GPU mode faster.
* **7b** SpMV on a single machine, 1.0 GB matrix + 123 MB vector: the
  first iteration of GFlink on one GPU gains modestly over one CPU, the
  following iterations several times more (matrix cached), and the second
  GPU cuts GPU iteration time further — the ``fig7b-*`` rows of
  ``paper.py`` carry the paper's three numbers.
"""

from repro.common.units import GB

from conftest import run_once
from harness import fresh_session, paper_cluster_config
from paper import CLAIMS
from repro.flink import ClusterConfig, CPUSpec
from repro.workloads import KMeansWorkload, SpMVWorkload

SPMV_1GB_ROWS = (1 * GB) / 192.0  # ELL rows of the paper's 1.0 GB matrix


def test_fig7a_kmeans_iteration_profile(benchmark):
    config = paper_cluster_config(n_workers=3)

    def measure():
        out = {}
        for mode in ("cpu", "gpu"):
            wl = KMeansWorkload(nominal_elements=210e6, real_elements=12_000,
                                iterations=8)
            out[mode] = wl.run(fresh_session(config), mode).iteration_seconds
        return out

    times = run_once(benchmark, measure)
    print("\n== Fig 7a: KMeans per-iteration time, 3 slaves, 210M points ==")
    for mode in ("cpu", "gpu"):
        row = "  ".join(f"{t:7.2f}" for t in times[mode])
        print(f"{mode:4s} {row}")
    benchmark.extra_info["iterations"] = times

    for mode in ("cpu", "gpu"):
        t = times[mode]
        mids = t[1:-1]
        assert t[0] > max(mids), f"{mode}: first iteration not slowest"
        assert t[-1] > max(mids), f"{mode}: last iteration not slow (write)"
        spread = (max(mids) - min(mids)) / min(mids)
        assert spread < 0.05, f"{mode}: middle iterations not flat"
    # GPU beats CPU at every iteration.
    assert all(g < c for c, g in zip(times["cpu"], times["gpu"]))


def test_fig7b_spmv_single_machine_iterations(benchmark):
    def single_machine(gpus):
        return ClusterConfig(n_workers=1, cpu=CPUSpec(cores=4),
                             gpus_per_worker=gpus)

    def measure():
        out = {}
        wl_kw = dict(nominal_elements=SPMV_1GB_ROWS, real_elements=8_000,
                     iterations=8)
        out["cpu"] = SpMVWorkload(**wl_kw).run(
            fresh_session(single_machine(())), "cpu").iteration_seconds
        out["gpu1"] = SpMVWorkload(**wl_kw).run(
            fresh_session(single_machine(("c2050",))), "gpu"
        ).iteration_seconds
        out["gpu2"] = SpMVWorkload(**wl_kw).run(
            fresh_session(single_machine(("c2050", "c2050"))), "gpu"
        ).iteration_seconds
        return out

    times = run_once(benchmark, measure)
    print("\n== Fig 7b: SpMV per-iteration, single machine, 1 GB matrix ==")
    for label in ("cpu", "gpu1", "gpu2"):
        row = "  ".join(f"{t:7.2f}" for t in times[label])
        print(f"{label:5s} {row}")
    benchmark.extra_info["iterations"] = times

    cpu, gpu1, gpu2 = times["cpu"], times["gpu1"], times["gpu2"]
    # First iteration: reading + transferring the matrix damps the factor.
    first = cpu[0] / gpu1[0]
    CLAIMS["fig7b-first"].check(first)
    # Middle iterations: the matrix is cached in the GPU.  Our model lands
    # somewhat above the paper's factor because its per-iteration framework
    # overhead is leaner than real Flink's.
    mid = cpu[3] / gpu1[3]
    CLAIMS["fig7b-cached"].check(mid)
    assert mid > 2 * first
    # After the first iteration, GPU time drops sharply; the last rises
    # again (the vector is written to HDFS).
    assert gpu1[1] < 0.8 * gpu1[0]
    assert gpu1[-1] > gpu1[-2]
    # The second GPU helps (``fig7b-second-gpu``), at least on the upload-
    # heavy first iteration and in total.
    assert gpu2[0] < gpu1[0]
    assert sum(gpu2) < sum(gpu1)
