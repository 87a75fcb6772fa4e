"""Table 1 — Benchmarks from HiBench: dataset catalog and generators.

Regenerates the table's rows (benchmark → five input sizes) and verifies the
generators actually produce data of the declared nominal size.
"""

from conftest import run_once
from repro.common.units import GB
from repro.workloads import (
    KMeansWorkload,
    PageRankWorkload,
    SpMVWorkload,
    WordCountWorkload,
    table1_sizes,
)
from repro.core import GFlinkCluster
from harness import paper_cluster_config
from paper import TABLE1_SIZES


def test_table1_catalog(benchmark):
    """Print Table 1 and check every size column is the paper's."""

    def build():
        rows = []
        for name in ("kmeans", "pagerank", "wordcount",
                     "connected_components", "linear_regression", "spmv"):
            rows.append((name, [s.label for s in table1_sizes(name)]))
        return rows

    rows = run_once(benchmark, build)
    print("\n== Table 1: Benchmarks from HiBench ==")
    for name, labels in rows:
        print(f"{name:22s} {', '.join(labels)}")
    benchmark.extra_info["table"] = {n: l for n, l in rows}

    table = dict(rows)
    for family, labels in TABLE1_SIZES.items():
        assert table[family] == labels


def test_generators_hit_nominal_sizes(benchmark):
    """Loading a Table 1 dataset into HDFS yields the nominal byte size."""

    def load():
        out = {}
        config = paper_cluster_config(n_workers=2)
        cluster = GFlinkCluster(config)
        km = KMeansWorkload(nominal_elements=150e6, real_elements=5000)
        km.prepare(cluster)
        out["kmeans"] = cluster.hdfs.status(km.path).nbytes
        wc = WordCountWorkload(nominal_elements=24 * GB / 10.0,
                               real_elements=5000)
        wc.prepare(cluster)
        out["wordcount"] = cluster.hdfs.status(wc.path).nbytes
        sp = SpMVWorkload(nominal_elements=2 * GB / 192.0,
                          real_elements=5000)
        sp.prepare(cluster)
        out["spmv"] = cluster.hdfs.status(sp.path).nbytes
        pr = PageRankWorkload(nominal_pages=5e6, real_pages=1000)
        pr.prepare(cluster)
        out["pagerank"] = cluster.hdfs.status(pr.path).nbytes
        return out

    sizes = run_once(benchmark, load)
    # 150M points x 8 B
    assert abs(sizes["kmeans"] - 150e6 * 8) / (150e6 * 8) < 0.01
    # 24 GB of text -> 4-byte word ids for the 2.4G words
    assert abs(sizes["wordcount"] - 2.4e9 * 4) / (2.4e9 * 4) < 0.01
    # 2 GB of ELL rows (128 B payload of a 192 B text row)
    expected_spmv = (2 * GB / 192.0) * 128
    assert abs(sizes["spmv"] - expected_spmv) / expected_spmv < 0.01
    # 5M pages x 8 edges x 8 B
    assert abs(sizes["pagerank"] - 5e6 * 8 * 8) / (5e6 * 8 * 8) < 0.01
