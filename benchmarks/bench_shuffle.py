"""Zero-copy columnar shuffle + vectorized CPU operators bench.

Runs WordCount and PageRank on the paper cluster twice per mode — classic
element-at-a-time execution vs ``vectorized=True`` (block UDFs charged at
SIMD rate, exchanges shipped as columnar SoA regions with no per-row
serde) — and consolidates makespans, zero-copy traffic and GProfiler
critical-path shares as ``zero_copy_vectorized``.

Asserted shape:

* results are value-identical between the two paths (the flag is a pure
  charge-model change);
* the vectorized makespan is lower on both workloads;
* the cpu+shuffle share of the critical path shrinks — the point of the
  optimisation: serde and iterator overhead leave the critical path, which
  becomes (even more) I/O-bound.
"""

from conftest import run_once
from harness import fresh_session, paper_cluster_config, run_workload
from paper import record_bench
from repro.workloads import PageRankWorkload, WordCountWorkload

N_WORKERS = 4

WORKLOADS = {
    "wordcount": lambda vec: WordCountWorkload(
        nominal_elements=2.4e9, real_elements=20_000, vectorized=vec),
    "pagerank": lambda vec: PageRankWorkload(
        nominal_pages=5e6, real_pages=2_000, iterations=3, vectorized=vec),
}


def cpu_shuffle_share(brief) -> float:
    """Fraction of the critical path attributed to cpu + shuffle."""
    cats = brief["critical_path_categories"]
    total = sum(cats.values())
    if total <= 0:
        return 0.0
    return (cats.get("cpu", 0.0) + cats.get("shuffle", 0.0)) / total


def _one(name, factory, vec):
    config = paper_cluster_config(n_workers=N_WORKERS)
    session = fresh_session(config)
    result = run_workload(lambda: factory(vec), "cpu", config,
                          session=session)
    zero_copy = sum(m.shuffle_zero_copy_bytes for m in result.job_metrics)
    shuffle = sum(m.shuffle_bytes for m in result.job_metrics)
    return {
        "makespan_s": round(result.total_seconds, 3),
        "shuffle_mb": round(shuffle / 1e6, 2),
        "zero_copy_mb": round(zero_copy / 1e6, 2),
        "cpu_shuffle_share": round(cpu_shuffle_share(result.profile), 4),
    }


def test_zero_copy_vectorized_speedup(benchmark):
    def measure():
        table = {}
        for name, factory in WORKLOADS.items():
            table[name] = {
                "element": _one(name, factory, vec=False),
                "vectorized": _one(name, factory, vec=True),
            }
        return table

    table = run_once(benchmark, measure)

    print("\n== zero-copy shuffle + vectorized operators (cpu mode) ==")
    print(f"{'workload':>10}  {'path':>10}  {'makespan':>10}  "
          f"{'zero-copy':>10}  {'cpu+shuffle share':>18}")
    for name, rows in table.items():
        for path, row in rows.items():
            print(f"{name:>10}  {path:>10}  {row['makespan_s']:>8.2f} s  "
                  f"{row['zero_copy_mb']:>7.1f} MB  "
                  f"{row['cpu_shuffle_share']:>17.1%}")
        element, vec = rows["element"], rows["vectorized"]
        cut = 1.0 - vec["makespan_s"] / element["makespan_s"]
        print(f"{'':>10}  makespan cut {cut:.1%}")

        # The columnar path must actually engage, and only there.
        assert element["zero_copy_mb"] == 0.0, name
        assert vec["zero_copy_mb"] > 0.0, name
        # Shuffled bytes are a property of the data, not the wire format.
        assert abs(vec["shuffle_mb"] - element["shuffle_mb"]) <= \
            0.01 * max(element["shuffle_mb"], 1e-9), name
        # The optimisation's headline: lower makespan, and a critical path
        # with a smaller cpu+shuffle share.
        assert vec["makespan_s"] < element["makespan_s"], name
        assert vec["cpu_shuffle_share"] < element["cpu_shuffle_share"], name

    benchmark.extra_info["table"] = table
    record_bench("zero_copy_vectorized", table)
