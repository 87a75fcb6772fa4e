"""Pinned clock and answers of every workload driver, in both modes.

Each row is one run on a fresh 4-worker x 2-C2050 cluster: the exact
``iteration_seconds`` (float literals round-trip, so ``==`` is the repr),
the names of the jobs the driver submitted, a digest of ``value`` and one of
the file the last iteration wrote to HDFS.  The rows cover every workload in
``cpu`` and ``gpu`` mode, the three workloads with a block spelling (KMeans,
PageRank, WordCount) vectorized in both modes, and one ``run_concurrent`` of
three tenants.

A driver refactor keeps this table as it is.  A change that moves a row is a
model change: it re-records the row and says which run moved and why.
"""

import hashlib

import numpy as np
import pytest

from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec
from repro.workloads import (
    ConnectedComponentsWorkload,
    KMeansWorkload,
    LinearRegressionWorkload,
    PageRankWorkload,
    PointAddWorkload,
    SpMVWorkload,
    WordCountWorkload,
    run_concurrent,
)

WORKLOADS = {
    "kmeans": lambda **kw: KMeansWorkload(
        nominal_elements=20e6, real_elements=3000, iterations=3, **kw),
    "pagerank": lambda **kw: PageRankWorkload(
        nominal_pages=1e6, real_pages=400, iterations=3, **kw),
    "wordcount": lambda **kw: WordCountWorkload(
        nominal_elements=1e8, real_elements=4000, **kw),
    "connected_components": lambda **kw: ConnectedComponentsWorkload(
        nominal_pages=1e6, real_pages=400, iterations=3, **kw),
    "linear_regression": lambda **kw: LinearRegressionWorkload(
        nominal_elements=20e6, real_elements=3000, iterations=3, **kw),
    "spmv": lambda **kw: SpMVWorkload(
        nominal_elements=2e6, real_elements=2000, iterations=3, **kw),
    "pointadd": lambda **kw: PointAddWorkload(
        nominal_elements=20e6, real_elements=3000, iterations=3, **kw),
}


def cluster():
    return GFlinkCluster(ClusterConfig(
        n_workers=4, cpu=CPUSpec(cores=2), gpus_per_worker=("c2050",) * 2))


def digest(value) -> str:
    """Type, dtype, shape and bytes of an array, item by item through a
    list or tuple, the repr of anything else."""
    h = hashlib.sha256()

    def feed(v):
        h.update(type(v).__name__.encode())
        if isinstance(v, np.ndarray):
            h.update(f"{v.dtype.str}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, (list, tuple)):
            h.update(str(len(v)).encode())
            for item in v:
                feed(item)
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()[:16]


def observe(result, workload, cluster):
    """The row of one run: its clock, its jobs, its value and what it wrote
    (WordCount's value is only the output path)."""
    written = [b.payload for b in cluster.hdfs.locate(workload.output_path)]
    return (result.iteration_seconds,
            [m.job_name for m in result.job_metrics],
            digest(result.value), digest(written))


CONCURRENT = (("kmeans", "gpu"), ("spmv", "cpu"), ("pointadd", "gpu"))

#: (workload, mode, "rows" | "vectorized") -> (iteration_seconds, job
#: names, digest of value, digest of the output file)
PINS = {
    ("connected_components", "cpu", "rows"): (
        [1.835455761666669, 1.695622486999989, 2.365867527333325],
        ["cc-cpu-iter0", "cc-cpu-iter1", "cc-cpu-iter2",
         "write(/connected_components/input-8000000-output)"],
        "8e0b55e849cbf232", "99c4a23d0ecb1fce"),
    ("connected_components", "gpu", "rows"): (
        [0.7607740134444466, 0.6209506777777811, 1.2911950821111124],
        ["cc-gpu-iter0", "cc-gpu-iter1", "cc-gpu-iter2",
         "write(/connected_components/input-8000000-output)"],
        "8e0b55e849cbf232", "99c4a23d0ecb1fce"),
    ("kmeans", "cpu", "rows"): (
        [2.5096669031111105, 2.303055791999998, 5.091722458666665],
        ["kmeans-cpu-iter0", "kmeans-cpu-iter1", "kmeans-cpu-iter2",
         "write(/kmeans/input-20000000-output)"],
        "d499e9e0eedea911", "e45f435f78309ce8"),
    ("kmeans", "cpu", "vectorized"): (
        [0.9093973253333325, 0.6255739919999996, 1.7367556586666666],
        ["kmeans-cpu-iter0", "kmeans-cpu-iter1", "kmeans-cpu-iter2",
         "write(/kmeans/input-20000000-output)"],
        "d499e9e0eedea911", "e45f435f78309ce8"),
    ("kmeans", "gpu", "rows"): (
        [0.9076221290360613, 0.6088428843582991, 1.7061955553527528],
        ["kmeans-gpu-iter0", "kmeans-gpu-iter1", "kmeans-gpu-iter2",
         "write(/kmeans/input-20000000-output)"],
        "dba286050c582360", "e45f435f78309ce8"),
    ("kmeans", "gpu", "vectorized"): (
        [0.9076221290360613, 0.6088428843582991, 1.7061955553527528],
        ["kmeans-gpu-iter0", "kmeans-gpu-iter1", "kmeans-gpu-iter2",
         "write(/kmeans/input-20000000-output)"],
        "dba286050c582360", "e45f435f78309ce8"),
    ("linear_regression", "cpu", "rows"): (
        [6.37181509888888, 5.628051210000008, 11.731717876666675],
        ["linreg-cpu-iter0", "linreg-cpu-iter1", "linreg-cpu-iter2",
         "write(/linear_regression/input-20000000-output)"],
        "0dc74e9b8c34963d", "0c0c065ae48f56bc"),
    ("linear_regression", "gpu", "rows"): (
        [1.9660251608396608, 0.6090087690618908, 1.7062612001359696],
        ["linreg-gpu-iter0", "linreg-gpu-iter1", "linreg-gpu-iter2",
         "write(/linear_regression/input-20000000-output)"],
        "ad0bc6f4fdd0589a", "0c0c065ae48f56bc"),
    ("pagerank", "cpu", "rows"): (
        [1.4760687396666672, 1.3364023130000007, 2.0067106463333237],
        ["pagerank-cpu-iter0", "pagerank-cpu-iter1", "pagerank-cpu-iter2",
         "write(/pagerank/input-8000000-output)"],
        "afc9c9a995c41b95", "0a0c3290dd670b0b"),
    ("pagerank", "cpu", "vectorized"): (
        [0.755383947166668, 0.6157172805000015, 1.286025613833332],
        ["pagerank-cpu-iter0", "pagerank-cpu-iter1", "pagerank-cpu-iter2",
         "write(/pagerank/input-8000000-output)"],
        "afc9c9a995c41b95", "0a0c3290dd670b0b"),
    ("pagerank", "gpu", "rows"): (
        [0.7608865861111124, 0.6212303251111124, 1.2915386584444433],
        ["pagerank-gpu-iter0", "pagerank-gpu-iter1", "pagerank-gpu-iter2",
         "write(/pagerank/input-8000000-output)"],
        "afc9c9a995c41b95", "0a0c3290dd670b0b"),
    ("pagerank", "gpu", "vectorized"): (
        [0.7578217936111126, 0.618165292611113, 1.2884736259444431],
        ["pagerank-gpu-iter0", "pagerank-gpu-iter1", "pagerank-gpu-iter2",
         "write(/pagerank/input-8000000-output)"],
        "afc9c9a995c41b95", "0a0c3290dd670b0b"),
    ("pointadd", "cpu", "rows"): (
        [1.954800105999995, 1.6093001059999956, 3.9869667726666647],
        ["pointadd-cpu-iter0", "pointadd-cpu-iter1", "pointadd-cpu-iter2",
         "write(/pointadd/input-20000000-output)"],
        "ba12e3960199995a", "2d7f86faeaf0367f"),
    ("pointadd", "gpu", "rows"): (
        [1.1769583910000012, 0.6347758576666651, 3.0124425243333324],
        ["pointadd-gpu-iter0", "pointadd-gpu-iter1", "pointadd-gpu-iter2",
         "write(/pointadd/input-20000000-output)"],
        "ba12e3960199995a", "2d7f86faeaf0367f"),
    ("spmv", "cpu", "rows"): (
        [4.074658166666666, 3.789053999999994, 4.464987333333331],
        ["spmv-cpu-iter0", "spmv-cpu-iter1", "spmv-cpu-iter2",
         "write(/spmv/input-2000000-output)"],
        "4ce6e3bb8b4d4239", "21ce098c901362e9"),
    ("spmv", "gpu", "rows"): (
        [1.1129762966666652, 0.6652330816666656, 1.3411664150000027],
        ["spmv-gpu-iter0", "spmv-gpu-iter1", "spmv-gpu-iter2",
         "write(/spmv/input-2000000-output)"],
        "4ce6e3bb8b4d4239", "21ce098c901362e9"),
    ("wordcount", "cpu", "rows"): (
        [3.415730038055548],
        ["write(/wordcount/input-100000000-output)"],
        "602b8857c141d678", "a4512f821a0335fd"),
    ("wordcount", "cpu", "vectorized"): (
        [1.3528911581874894],
        ["write(/wordcount/input-100000000-output)"],
        "602b8857c141d678", "7f08e320f6915995"),
    ("wordcount", "gpu", "rows"): (
        [2.9772613974730273],
        ["write(/wordcount/input-100000000-output)"],
        "602b8857c141d678", "03f0b9f1506042a9"),
    ("wordcount", "gpu", "vectorized"): (
        [1.3671128776049688],
        ["write(/wordcount/input-100000000-output)"],
        "602b8857c141d678", "9f3df7894ab21013"),
}

#: one row per tenant of CONCURRENT
CONCURRENT_PINS = [
    (
        [1.6046834080000005, 0.6088428843582925, 1.706195555352748],
        ["kmeans-gpu-iter0", "kmeans-gpu-iter1", "kmeans-gpu-iter2",
         "write(/tenant/kmeans-output)"],
        "dba286050c582360", "e45f435f78309ce8"),
    (
        [4.573160106333352, 4.149403999999997, 4.463837333333354],
        ["spmv-cpu-iter0", "spmv-cpu-iter1", "spmv-cpu-iter2",
         "write(/tenant/spmv-output)"],
        "4ce6e3bb8b4d4239", "21ce098c901362e9"),
    (
        [1.886291724333339, 0.6347758576666731, 3.0124425243333413],
        ["pointadd-gpu-iter0", "pointadd-gpu-iter1", "pointadd-gpu-iter2",
         "write(/tenant/pointadd-output)"],
        "ba12e3960199995a", "f0f0f9c93658d3f3"),
]


@pytest.mark.parametrize("case", sorted(PINS), ids="-".join)
def test_run_is_pinned(case):
    name, mode, vec = case
    workload = WORKLOADS[name](vectorized=vec == "vectorized")
    on = cluster()
    result = workload.run(GFlinkSession(on), mode)
    assert observe(result, workload, on) == PINS[case]


def test_concurrent_run_is_pinned():
    on = cluster()
    apps = [(WORKLOADS[name](path=f"/tenant/{name}"), mode)
            for name, mode in CONCURRENT]
    results = run_concurrent(on, apps)
    assert [observe(r, w, on) for r, (w, _) in zip(results, apps)] \
        == CONCURRENT_PINS
