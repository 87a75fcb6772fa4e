"""Block-pipeline benchmark: barriered vs streaming A/B + knob sweep.

Two experiments, recorded as ``pipeline_barriered_vs_pipelined`` and
``pipeline_block_queue_sweep``:

* **A/B** — the same workloads run on the barriered reference clock
  (``tests.flink.conftest.barriered``: every operator an exchange boundary,
  nothing streams) and as the engine runs them.  Results must be
  *bit-identical* (the data plane is untouched; only the clock changes) and
  the pipelined clock must never lose: overlapping HDFS reads with
  deserialization, H2D copies and kernels can only hide latency, never add
  it.
* **Knob sweep** — block size (``pipeline_block_nbytes``) × queue depth
  (``pipeline_queue_blocks``) on the I/O-bound WordCount.  Finer blocks
  expose more of the read window to downstream stages; deeper queues buy
  more read-ahead before backpressure stalls the producer.

The paper's point (§6.5) survives intact: WordCount stays I/O-bound, so
the win is a few percent of makespan — exactly the HDFS tail the pipeline
hides — not a step change.
"""

from conftest import run_once
from paper import record_bench
from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.flink.chaos import values_equal
from repro.workloads import KMeansWorkload, WordCountWorkload
from tests.flink.conftest import barriered


N_WORKERS = 10
REAL_WORDS = 40_000
REAL_POINTS = 12_000

#: (label, mode, factory) — the A/B matrix.  Sizes are chosen so the HDFS
#: scan is multiple blocks per subtask (else there is nothing to overlap).
WORKLOADS = (
    ("wordcount-cpu-1e8", "cpu",
     lambda: WordCountWorkload(nominal_elements=1e8,
                               real_elements=REAL_WORDS)),
    ("wordcount-gpu-1e8", "gpu",
     lambda: WordCountWorkload(nominal_elements=1e8,
                               real_elements=REAL_WORDS)),
    ("kmeans-gpu-1e9", "gpu",
     lambda: KMeansWorkload(nominal_elements=1e9,
                            real_elements=REAL_POINTS, iterations=3)),
)

#: Knob grid for the sweep (block size in MiB, queue depth in blocks).
BLOCK_MIB = (2, 8, 32)
QUEUE_BLOCKS = (2, 4, 8)


def _config(block_mib: float = None,
            queue_blocks: int = None) -> ClusterConfig:
    flink_kwargs = {}
    if block_mib is not None:
        flink_kwargs["pipeline_block_nbytes"] = block_mib * 2 ** 20
    if queue_blocks is not None:
        flink_kwargs["pipeline_queue_blocks"] = queue_blocks
    return ClusterConfig(n_workers=N_WORKERS, cpu=CPUSpec(),
                         gpus_per_worker=("c2050", "c2050"),
                         flink=FlinkConfig(**flink_kwargs))


def _run(factory, mode: str, config: ClusterConfig):
    return factory().run(GFlinkSession(GFlinkCluster(config)), mode)


def _run_barriered(factory, mode: str):
    with barriered():
        return _run(factory, mode, _config())


def test_pipeline_barriered_vs_pipelined(benchmark):
    def measure():
        points = []
        for label, mode, factory in WORKLOADS:
            reference = _run_barriered(factory, mode)
            piped = _run(factory, mode, _config())
            points.append({
                "workload": label,
                "barriered_s": round(reference.total_seconds, 4),
                "pipelined_s": round(piped.total_seconds, 4),
                "speedup": round(reference.total_seconds
                                 / piped.total_seconds, 4),
                "identical": values_equal(reference.value, piped.value),
            })
        return points

    points = run_once(benchmark, measure)

    print("\n== Barriered reference vs pipelined clock "
          f"({N_WORKERS} workers) ==")
    print(f"{'workload':<18} {'barriered':>9} {'pipelined':>10} "
          f"{'speedup':>8} {'same':>5}")
    for p in points:
        print(f"{p['workload']:<18} {p['barriered_s']:>8.2f}s "
              f"{p['pipelined_s']:>9.2f}s {p['speedup']:>7.3f}x "
              f"{'yes' if p['identical'] else 'NO':>5}")

    summary = {p["workload"]: p for p in points}
    benchmark.extra_info["table"] = summary
    record_bench("pipeline_barriered_vs_pipelined", summary)

    # The two clocks share one data plane: results are bit-identical.
    assert all(p["identical"] for p in points)
    # Overlap can only hide latency; the pipelined clock never loses.
    assert all(p["speedup"] >= 1.0 for p in points)
    # And it visibly wins somewhere: the I/O tail is real.
    assert max(p["speedup"] for p in points) >= 1.02


def test_pipeline_block_queue_sweep(benchmark):
    factory = WORKLOADS[1][2]  # wordcount-gpu-1e8: I/O-bound, single pass

    def measure():
        reference = _run_barriered(factory, "gpu")
        grid = []
        for block_mib in BLOCK_MIB:
            for queue in QUEUE_BLOCKS:
                piped = _run(factory, "gpu", _config(block_mib, queue))
                grid.append({
                    "block_mib": block_mib, "queue_blocks": queue,
                    "pipelined_s": round(piped.total_seconds, 4),
                    "speedup": round(reference.total_seconds
                                     / piped.total_seconds, 4),
                    "identical": values_equal(reference.value, piped.value),
                })
        return reference.total_seconds, grid

    barriered_s, grid = run_once(benchmark, measure)

    print("\n== Pipeline knobs: block size x queue depth "
          f"(wordcount-gpu-1e8, barriered {barriered_s:.2f} s) ==")
    print(f"{'block':>6} {'queue':>6} {'pipelined':>10} {'speedup':>8} "
          f"{'same':>5}")
    for g in grid:
        print(f"{g['block_mib']:>4}MB {g['queue_blocks']:>6} "
              f"{g['pipelined_s']:>9.2f}s {g['speedup']:>7.3f}x "
              f"{'yes' if g['identical'] else 'NO':>5}")

    summary = {f"block{g['block_mib']}MB-queue{g['queue_blocks']}": g
               for g in grid}
    summary["barriered_s"] = round(barriered_s, 4)
    benchmark.extra_info["table"] = summary
    record_bench("pipeline_block_queue_sweep", summary)

    # Correctness is knob-independent: every grid point is bit-identical.
    assert all(g["identical"] for g in grid)
    # No knob setting may make the pipeline slower than the barrier.
    assert all(g["speedup"] >= 1.0 for g in grid)
    # Finer blocks expose more overlap on an I/O-bound scan: the best
    # fine-block point is at least as good as the best coarse-block one.
    best = {b: max(g["speedup"] for g in grid if g["block_mib"] == b)
            for b in BLOCK_MIB}
    assert best[min(BLOCK_MIB)] >= best[max(BLOCK_MIB)] - 1e-9
