"""Fig. 8c/8d — Concurrent multi-application execution (§6.6.4).

Three applications — KMeans, SpMV and PointAdd — are submitted
simultaneously; their Flink tasks *produce* GWork while the shared GPUs'
GStreams *consume* it (the producer–consumer scheme that lets "a GPU be
shared among multiple task slots").

* **8c** single node, parallelism 1 per app: three apps time-share the node,
  plus contention overhead — the ``fig8c`` row of ``paper.py`` quotes the
  paper's ratio of concurrent to exclusive running time.
* **8d** 10-node cluster, parallelism 10: concurrency still costs, because
  "reading and writing from HDFS, as well as transferring data over networks
  affect the performance".
"""

from conftest import run_once
from harness import fresh_session
from paper import CLAIMS
from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec
from repro.workloads import (
    KMeansWorkload,
    PointAddWorkload,
    SpMVWorkload,
    run_concurrent,
)

ITERS = 4


def _apps(parallelism_hint):
    # Sizes scaled so each app does comparable work.
    return [
        (KMeansWorkload(nominal_elements=40e6, real_elements=6_000,
                        iterations=ITERS), "gpu"),
        (SpMVWorkload(nominal_elements=4e6, real_elements=6_000,
                      iterations=ITERS), "gpu"),
        (PointAddWorkload(nominal_elements=40e6, real_elements=6_000,
                          iterations=ITERS), "gpu"),
    ]


def _exclusive_walls(config):
    walls = {}
    for workload, mode in _apps(1):
        session = fresh_session(config)
        result = workload.run(session, mode)
        walls[workload.name] = result.total_seconds
    return walls


def _concurrent_walls(config):
    cluster = GFlinkCluster(config)
    results = run_concurrent(cluster, _apps(1))
    return {r.name: r.total_seconds for r in results}


def _report(title, exclusive, concurrent, benchmark):
    print(f"\n== {title} ==")
    print(f"{'app':10s} {'exclusive':>10} {'concurrent':>11} {'ratio':>7}")
    for name in exclusive:
        e, c = exclusive[name], concurrent[name]
        print(f"{name:10s} {e:>9.2f}s {c:>10.2f}s {c / e:>6.2f}x")
    benchmark.extra_info["walls"] = {
        "exclusive": {k: round(v, 3) for k, v in exclusive.items()},
        "concurrent": {k: round(v, 3) for k, v in concurrent.items()},
    }


def test_fig8c_concurrent_apps_single_node(benchmark):
    config = ClusterConfig(n_workers=1, cpu=CPUSpec(cores=4),
                           gpus_per_worker=("c2050", "c2050"))

    def measure():
        return _exclusive_walls(config), _concurrent_walls(config)

    exclusive, concurrent = run_once(benchmark, measure)
    _report("Fig 8c: three concurrent applications, single node",
            exclusive, concurrent, benchmark)

    # Every app slows down under sharing...
    for name in exclusive:
        assert concurrent[name] > exclusive[name]
    # ...and the joint makespan is ~the serialized sum (plus contention):
    # three apps share two GPUs and four slots.
    total_exclusive = sum(exclusive.values())
    joint_makespan = max(concurrent.values())
    avg_exclusive = total_exclusive / 3
    ratio = joint_makespan / avg_exclusive
    print(f"joint makespan / single exclusive run: {ratio:.2f}x "
          f"(paper: {CLAIMS['fig8c'].paper!r})")
    CLAIMS["fig8c"].check(ratio)


def test_fig8d_concurrent_apps_cluster(benchmark):
    config = ClusterConfig(n_workers=10, cpu=CPUSpec(cores=4),
                           gpus_per_worker=("c2050", "c2050"))

    def measure():
        return _exclusive_walls(config), _concurrent_walls(config)

    exclusive, concurrent = run_once(benchmark, measure)
    _report("Fig 8d: three concurrent applications, 10-node cluster",
            exclusive, concurrent, benchmark)

    # Contention exists but the cluster absorbs it better than one node:
    # per-app slowdown factors stay below the single-node worst case.
    slowdowns = [concurrent[n] / exclusive[n] for n in exclusive]
    assert all(s > 1.0 for s in slowdowns)
    assert max(slowdowns) < 4.0


def test_fig8cd_gpu_sharing_is_safe(benchmark):
    """Concurrent apps must still compute correct results (isolation of
    cache regions per app_id, no cross-app data mixing)."""
    import numpy as np

    def measure():
        config = ClusterConfig(n_workers=2, cpu=CPUSpec(cores=2),
                               gpus_per_worker=("c2050",))
        cluster = GFlinkCluster(config)
        apps = [
            (SpMVWorkload(nominal_elements=3_000, real_elements=3_000,
                          iterations=3), "gpu"),
            (PointAddWorkload(nominal_elements=3_000, real_elements=3_000,
                              iterations=2), "gpu"),
        ]
        concurrent = run_concurrent(cluster, apps)

        solo_cluster = GFlinkCluster(config)
        solo = SpMVWorkload(nominal_elements=3_000, real_elements=3_000,
                            iterations=3).run(
            GFlinkSession(solo_cluster), "gpu")
        return (np.asarray(concurrent[0].value, float),
                np.asarray(solo.value, float))

    concurrent_x, solo_x = run_once(benchmark, measure)
    assert np.allclose(concurrent_x, solo_x, atol=1e-6)
