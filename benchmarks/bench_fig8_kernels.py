"""Fig. 8b — Detailed speedup of GMapper and GReducer per kernel and GPU.

Single node; the Map/Reduce phase alone is timed (job submission, HDFS and
scheduling excluded), CPU baseline is the original Flink ``mapPartition``
iterator path.  The paper's observations, all asserted here:

* executions on the P100 are fastest, K20 next, GTX 750 ≈ C2050;
* the GMapper speedups of KMeans and SpMV far exceed those workloads'
  *overall* speedups (Amdahl);
* PointAdd's GMapper speedup is smaller than KMeans' and SpMV's;
* the GReducer gets no good speedup ("it is not compute-intensive").
"""

from repro.common.units import GB

from conftest import run_once
from harness import fresh_session
from paper import CLAIMS
from repro.flink import ClusterConfig, CPUSpec
from repro.workloads import KMeansWorkload, PointAddWorkload, SpMVWorkload

GPUS = ("c2050", "gtx750", "k20", "p100")


def _span_seconds(result, prefix):
    """Wall time of the first operator span whose name starts with prefix."""
    total = 0.0
    for metrics in result.job_metrics:
        for span in metrics.operator_spans.values():
            if span.name.startswith(prefix):
                total += span.seconds
    return total


def _mapper_speedup(workload_factory, gpu_name, span_prefixes):
    cpu_prefix, gpu_prefix = span_prefixes
    cpu_session = fresh_session(ClusterConfig(
        n_workers=1, cpu=CPUSpec(), gpus_per_worker=()))
    cpu = workload_factory().run(cpu_session, "cpu")
    gpu_session = fresh_session(ClusterConfig(
        n_workers=1, cpu=CPUSpec(), gpus_per_worker=(gpu_name,)))
    gpu = workload_factory().run(gpu_session, "gpu")
    return _span_seconds(cpu, cpu_prefix) / _span_seconds(gpu, gpu_prefix)


def test_fig8b_gmapper_greducer_speedups(benchmark):
    kmeans_kw = dict(nominal_elements=60e6, real_elements=8_000,
                     iterations=3)
    spmv_kw = dict(nominal_elements=(1 * GB) / 192.0, real_elements=8_000,
                   iterations=3)
    pointadd_kw = dict(nominal_elements=60e6, real_elements=8_000,
                       iterations=3)

    def measure():
        table = {}
        for gpu in GPUS:
            table[gpu] = {
                "kmeans": _mapper_speedup(
                    lambda: KMeansWorkload(**kmeans_kw), gpu,
                    ("kmeans-assign", "gpu-map-partition(kmeans_assign)")),
                "spmv": _mapper_speedup(
                    lambda: SpMVWorkload(**spmv_kw), gpu,
                    ("spmv-mult", "gpu-map-partition(spmv_ell)")),
                "pointadd": _mapper_speedup(
                    lambda: PointAddWorkload(**pointadd_kw), gpu,
                    ("pointadd", "pointadd-gpu")),
            }
        return table

    table = run_once(benchmark, measure)
    print("\n== Fig 8b: GMapper speedup per kernel and GPU ==")
    print(f"{'GPU':8s} {'KMeans':>9} {'SpMV':>9} {'PointAdd':>9}")
    for gpu in GPUS:
        row = table[gpu]
        print(f"{gpu:8s} {row['kmeans']:>8.1f}x {row['spmv']:>8.1f}x "
              f"{row['pointadd']:>8.1f}x")
    benchmark.extra_info["speedups"] = {
        g: {k: round(v, 2) for k, v in r.items()} for g, r in table.items()}

    for kernel in ("kmeans", "spmv", "pointadd"):
        # P100 fastest, K20 second.
        assert table["p100"][kernel] > table["k20"][kernel]
        assert table["k20"][kernel] > table["gtx750"][kernel]
    # "the performance on C2050 and GTX 750 is almost the same" — true for
    # FLOP-bound kernels (their peak GFLOP/s are within 2%); the memory-
    # bandwidth-bound SpMV kernel is the exception (80 vs 144 GB/s).
    for kernel in ("kmeans", "pointadd"):
        ratio = table["gtx750"][kernel] / table["c2050"][kernel]
        assert 0.8 < ratio < 1.25, f"{kernel}: GTX750/C2050 ratio {ratio}"
    assert table["gtx750"]["spmv"] < table["c2050"]["spmv"]
    for gpu in GPUS:
        # PointAdd's mapper gains least (§6.6.2).
        assert table[gpu]["pointadd"] < table[gpu]["kmeans"]
        assert table[gpu]["pointadd"] < table[gpu]["spmv"]
    # Mapper speedups far exceed the overall speedups of Figs. 5a / 6a.
    assert table["c2050"]["kmeans"] > CLAIMS["fig5a"].paper
    assert table["c2050"]["spmv"] > CLAIMS["fig6a"].paper


def test_fig8b_greducer_not_compute_intensive(benchmark):
    """GReducer speedup is small: the reduce phase is traffic, not FLOPs."""
    import numpy as np
    from repro.core import GFlinkSession, GFlinkCluster
    from repro.flink import OpCost
    from repro.gpu import KernelSpec

    def measure():
        config = ClusterConfig(n_workers=1, cpu=CPUSpec(),
                               gpus_per_worker=("c2050",))
        cluster = GFlinkCluster(config)
        session = GFlinkSession(cluster)
        session.register_kernel(KernelSpec(
            "sum_reduce",
            lambda i, p: {"out": np.array([float(np.sum(i["in"]))])},
            flops_per_element=1.0, bytes_per_element=8.0, efficiency=0.3))
        data = np.arange(40_000, dtype=np.float64)
        ds = session.from_collection(data, element_nbytes=8.0, scale=500.0,
                                     parallelism=2).persist()
        ds.materialize()
        cpu = ds.reduce(lambda a, b: a + b,
                        cost=OpCost(flops_per_element=1.0), name="cpu-red")
        cpu_result = cpu.collect()
        gpu = ds.gpu_reduce("sum_reduce", final_fn=lambda a, b: a + b)
        gpu_result = gpu.collect()
        assert abs(cpu_result.value[0] - gpu_result.value[0]) < 1e-6
        return cpu_result.seconds, gpu_result.seconds

    cpu_s, gpu_s = run_once(benchmark, measure)
    speedup = cpu_s / gpu_s
    print(f"\nGReducer speedup: {speedup:.2f}x "
          f"(paper: {CLAIMS['fig8b-greducer'].paper!r})")
    CLAIMS["fig8b-greducer"].check(speedup)  # nothing like the mapper factors
