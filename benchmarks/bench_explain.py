"""GXplain benchmark: explainer precision across a perturbation matrix.

One shared KMeans baseline (3 workers, gpu mode, traced) is compared
against four perturbed variants, each with a known injected root cause:

* **fault** — the only GPU of worker0 fails early; its operators degrade
  to CPU fallback, so wall time moves into the ``cpu`` bucket;
* **bandwidth** — a C2050 variant with 1/8 the effective PCIe bandwidth
  inflates the ``h2d``/``d2h`` buckets;
* **cache-off** — a one-byte device cache forces every iteration to
  re-upload its inputs (``h2d``);
* **slot-loss** — one worker fewer also removes a datanode, so the HDFS
  ingest path dominates the regression (``hdfs``).

Each cell records the full ranked causes, the rank of the expected
bucket, and the exact-attribution invariant (cause deltas + residual ==
makespan delta).  The headline metric is precision@1: the fraction of
cells whose expected cause ranks first.  Recorded as
``explain_precision_matrix``.
"""

import dataclasses
from conftest import run_once
from paper import record_bench
from repro.core import GFlinkCluster, GFlinkSession
from repro.core.gpumanager import GPUManagerConfig
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.flink.chaos import ChaosSchedule
from repro.gpu import specs as gspecs
from repro.obs.explain import explain_summaries, validate_explanation
from repro.obs.profile import summarize_tracer
from repro.workloads import KMeansWorkload


N_WORKERS = 3
SLOW_PCIE_NAME = "c2050-slowpcie"


def _config(n_workers: int = N_WORKERS,
            gpu: str = "c2050") -> ClusterConfig:
    return ClusterConfig(n_workers=n_workers, cpu=CPUSpec(cores=2),
                         gpus_per_worker=(gpu,),
                         flink=FlinkConfig(enable_tracing=True,
                                           retry_backoff_base_s=0.05))


def _run(config: ClusterConfig, gpu_config=None, schedule=None):
    cluster = GFlinkCluster(config, gpu_config=gpu_config)
    if schedule is not None:
        cluster.install_chaos(schedule)
    KMeansWorkload(real_elements=4000, iterations=3).run(
        GFlinkSession(cluster), "gpu")
    return summarize_tracer(cluster.obs.tracer)


def _slow_pcie_summary():
    """Run on a C2050 variant with 1/8 the host<->device bandwidth."""
    gspecs.SPECS[SLOW_PCIE_NAME] = dataclasses.replace(
        gspecs.TESLA_C2050, name="Tesla C2050 (slow PCIe)",
        pcie_effective_bps=gspecs.TESLA_C2050.pcie_effective_bps / 8)
    try:
        return _run(_config(gpu=SLOW_PCIE_NAME))
    finally:
        del gspecs.SPECS[SLOW_PCIE_NAME]


#: cell name -> (runner, buckets the injected cause may legitimately land
#: in).  Singleton sets are strict; bandwidth accepts either PCIe
#: direction (one copy engine serializes both).
MATRIX = {
    "fault": (lambda: _run(_config(), schedule=ChaosSchedule()
                           .fail_gpu("worker0", 0, at=5.0)),
              {"cpu", "recovery"}),
    "bandwidth": (_slow_pcie_summary, {"h2d", "d2h"}),
    "cache-off": (lambda: _run(_config(), gpu_config=GPUManagerConfig(
        cache_bytes_per_device=1)), {"h2d"}),
    "slot-loss": (lambda: _run(_config(n_workers=N_WORKERS - 1)),
                  {"hdfs"}),
}


def test_explainer_precision_matrix(benchmark):
    def measure():
        base = _run(_config())
        return base, {name: runner()
                      for name, (runner, _) in MATRIX.items()}

    base, perturbed = run_once(benchmark, measure)

    print("\n== GXplain precision across injected perturbations ==")
    print(f"{'cell':>10} {'delta':>9} {'top cause':>10} {'rank':>4} "
          f"{'residual':>9} {'expected':>16}")
    cells = {}
    hits = 0
    for name, summary in perturbed.items():
        expected = MATRIX[name][1]
        doc = explain_summaries(summary, base)
        assert validate_explanation(doc) == [], (name, doc)
        causes = doc["causes"]
        assert causes, f"{name}: no causes above the noise floor"
        ranked = [c["key"] for c in causes]
        rank = next((c["rank"] for c in causes if c["key"] in expected), 0)
        hit = causes[0]["key"] in expected
        hits += hit
        print(f"{name:>10} {doc['makespan_delta_s']:>+8.3f}s "
              f"{causes[0]['key']:>10} {rank:>4} "
              f"{doc['residual_s']:>+8.3f}s {'/'.join(sorted(expected)):>16}")

        # Exact attribution: cause deltas + residual == makespan delta,
        # and the residual stays inside the aggregate noise floor.
        attributed = sum(c["delta_s"] for c in causes)
        assert abs(attributed + doc["residual_s"] -
                   doc["makespan_delta_s"]) <= 1e-9, name
        assert abs(doc["residual_s"]) <= \
            doc["noise_floor_s"] * max(1, len(ranked) + 4), name

        cells[name] = {
            "makespan_delta_s": round(doc["makespan_delta_s"], 4),
            "expected": sorted(expected),
            "top_cause": causes[0]["key"],
            "rank_of_expected": rank,
            "hit": hit,
            "residual_s": round(doc["residual_s"], 4),
            "noise_floor_s": round(doc["noise_floor_s"], 4),
            "causes": [{"rank": c["rank"], "key": c["key"],
                        "delta_s": round(c["delta_s"], 4),
                        "share_of_delta": (
                            None if c["share_of_delta"] is None
                            else round(c["share_of_delta"], 4))}
                       for c in causes],
        }

    precision = hits / len(cells)
    print(f"precision@1: {hits}/{len(cells)} = {precision:.0%}")

    summary = {"baseline_makespan_s": round(base["makespan_s"], 4),
               "precision_at_1": precision, "cells": cells}
    benchmark.extra_info["table"] = summary
    record_bench("explain_precision_matrix", summary)

    # Acceptance: every injected cause is ranked first by the explainer.
    assert precision == 1.0, summary
