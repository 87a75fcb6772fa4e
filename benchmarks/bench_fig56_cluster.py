"""Figs. 5–6 — average running time and speedup on the cluster.

10 slave nodes, 4 CPUs + 2 Tesla C2050 each; one CPU-vs-GPU sweep per
benchmark over its five Table-1 inputs.  The six headline factors, their
bands and the sweep parameters are the ``fig5a`` … ``fig6c`` rows of
``paper.py``; the companion tests below pin the paper's *explanations* of
those factors (what shuffles, what is cached, what bounds the job).
"""

import pytest

from conftest import run_once
from harness import (
    assert_speedup_grows_with_size,
    fresh_session,
    mid_size,
    paper_cluster_config,
    run_workload,
    sweep_claim,
)
from paper import CLAIMS, SWEEPS
from repro.common.units import GB
from repro.workloads import (
    ConnectedComponentsWorkload,
    KMeansWorkload,
    LinearRegressionWorkload,
    PageRankWorkload,
    SpMVWorkload,
    WordCountWorkload,
)

REAL_PAGES = CLAIMS["fig5b"].real
REAL_SAMPLES = CLAIMS["fig6b"].real


@pytest.mark.parametrize("claim", SWEEPS, ids=lambda claim: claim.id)
def test_cluster_sweep(benchmark, claim):
    report = run_once(benchmark, lambda: sweep_claim(claim))
    report.emit(benchmark, claim.id)

    # The spread across sizes is wide (Observation 3: the smallest input is
    # overhead-bound); the mid-size point sits at the paper's factor.
    speedups = report.speedups()
    assert all(claim.in_band(s) for s in speedups), (
        f"{report.title}: speedups {speedups} outside {claim.band}")
    claim.check(mid_size(report.rows).speedup)
    if claim.grows:
        assert_speedup_grows_with_size(report)
    if claim.cpu_growth is not None:
        # CPU time grows roughly linearly with input (compute-bound).
        cpu = [r.cpu_s for r in report.rows]
        assert cpu[-1] / cpu[0] > claim.cpu_growth


def test_fig5b_pagerank_shuffle_caps_speedup(benchmark):
    """Observation 1: PageRank shuffles real data every iteration, unlike
    KMeans — its shuffle bytes per iteration are far higher."""
    config = paper_cluster_config(n_workers=3)

    def measure():
        pr = run_workload(lambda: PageRankWorkload(
            nominal_pages=10e6, real_pages=REAL_PAGES, iterations=3),
            "cpu", config)
        km = run_workload(lambda: KMeansWorkload(
            nominal_elements=10e6 * 8, real_elements=REAL_PAGES * 8,
            iterations=3), "cpu", config)
        pr_shuffle = sum(m.shuffle_bytes for m in pr.job_metrics)
        km_shuffle = sum(m.shuffle_bytes for m in km.job_metrics)
        return pr_shuffle, km_shuffle

    pr_shuffle, km_shuffle = run_once(benchmark, measure)
    print(f"\nshuffle bytes: pagerank={pr_shuffle:.3g}, "
          f"kmeans={km_shuffle:.3g}")
    assert pr_shuffle > 10 * km_shuffle


def test_fig5c_wordcount_io_is_bottleneck(benchmark):
    """§6.5: 'the I/O overhead of WordCount is the bottleneck'."""
    config = paper_cluster_config()

    def measure():
        result = run_workload(lambda: WordCountWorkload(
            nominal_elements=2.4e9, real_elements=CLAIMS["fig5c"].real),
            "gpu", config)
        metrics = result.job_metrics[0]
        io_bytes = metrics.hdfs_read_bytes + metrics.hdfs_write_bytes
        return io_bytes, metrics.gpu_kernel_s, result.total_seconds

    io_bytes, kernel_s, total_s = run_once(benchmark, measure)
    disk_seconds = io_bytes / (10 * 150e6)  # cluster aggregate read rate
    print(f"\nI/O-bound check: disk~{disk_seconds:.1f}s of "
          f"{total_s:.1f}s total; GPU kernels {kernel_s:.2f}s")
    assert disk_seconds > 0.3 * total_s
    assert kernel_s < 0.1 * total_s


def test_fig6a_spmv_matrix_cached_after_first_iteration(benchmark):
    """The cache removes the matrix re-upload from iterations 2+."""

    def measure():
        session = fresh_session(paper_cluster_config(n_workers=2))
        wl = SpMVWorkload(nominal_elements=2 * GB / 192.0,
                          real_elements=CLAIMS["fig6a"].real, iterations=4)
        result = wl.run(session, "gpu")
        pcie = [m.pcie_bytes for m in result.job_metrics
                if m.job_name.startswith("spmv-gpu-iter")]
        return pcie

    pcie = run_once(benchmark, measure)
    print(f"\nper-iteration PCIe bytes: {[f'{p:.3g}' for p in pcie]}")
    # Iteration 1 uploads the matrix; later iterations move only the vector
    # and results.
    assert pcie[1] < 0.5 * pcie[0]
    assert abs(pcie[2] - pcie[1]) / pcie[1] < 0.05


def test_fig6b_linreg_is_the_best_case(benchmark):
    """LinearRegression's speedup exceeds KMeans' at the same input size
    (Fig. 5a vs 6b), because its reduce side is a single DIM-vector."""
    config = paper_cluster_config()

    def measure():
        n = 210e6
        lr = {m: run_workload(lambda: LinearRegressionWorkload(
            nominal_elements=n, real_elements=REAL_SAMPLES, iterations=5),
            m, config).total_seconds for m in ("cpu", "gpu")}
        km = {m: run_workload(lambda: KMeansWorkload(
            nominal_elements=n, real_elements=REAL_SAMPLES, iterations=5),
            m, config).total_seconds for m in ("cpu", "gpu")}
        return lr["cpu"] / lr["gpu"], km["cpu"] / km["gpu"]

    lr_speedup, km_speedup = run_once(benchmark, measure)
    print(f"\nlinreg {lr_speedup:.2f}x vs kmeans {km_speedup:.2f}x")
    assert lr_speedup > km_speedup


def test_fig6c_ordering_between_pagerank_and_kmeans(benchmark):
    """Fig. 5/6 ordering: PageRank < ConnectedComponents < LinearRegression."""
    config = paper_cluster_config()

    def measure():
        def speedup(factory):
            cpu = run_workload(factory, "cpu", config).total_seconds
            gpu = run_workload(factory, "gpu", config).total_seconds
            return cpu / gpu

        cc = speedup(lambda: ConnectedComponentsWorkload(
            nominal_pages=15e6, real_pages=REAL_PAGES, iterations=5))
        pr = speedup(lambda: PageRankWorkload(
            nominal_pages=15e6, real_pages=REAL_PAGES, iterations=5))
        lr = speedup(lambda: LinearRegressionWorkload(
            nominal_elements=210e6, real_elements=REAL_SAMPLES,
            iterations=5))
        return pr, cc, lr

    pr, cc, lr = run_once(benchmark, measure)
    print(f"\npagerank {pr:.2f}x < concomp {cc:.2f}x < linreg {lr:.2f}x")
    assert pr < cc < lr
