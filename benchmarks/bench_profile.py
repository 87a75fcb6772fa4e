"""GProfiler bench: critical-path briefs per workload + self-gate check.

Runs traced GPU workloads through the shared harness (which now attaches a
:func:`harness.profile_brief` to every record), profiles each run, and
records the briefs as ``profile_briefs``.  The shape this asserts:

* critical-path attribution partitions the makespan exactly (the profiler's
  acceptance criterion: sums match to within a clock tick);
* a GPU-heavy run shows device activity (kernel + PCIe seconds) and the
  three-stage pipeline's copy/compute overlap;
* the regression gate passes a run against itself and flags a degraded
  baseline (makespan inflated past the threshold).
"""

from conftest import run_once
from harness import fresh_session, paper_cluster_config, run_workload
from paper import record_bench
from repro.obs.profile import compare_summaries, summarize_tracer
from repro.workloads import KMeansWorkload, WordCountWorkload

N_WORKERS = 2

WORKLOADS = {
    "kmeans": lambda: KMeansWorkload(nominal_elements=210e6,
                                     real_elements=6000, iterations=2),
    "wordcount": lambda: WordCountWorkload(nominal_elements=50e6,
                                           real_elements=6000),
}


def test_profile_briefs(benchmark):
    def measure():
        out = {}
        for name, factory in WORKLOADS.items():
            config = paper_cluster_config(n_workers=N_WORKERS)
            session = fresh_session(config)
            result = run_workload(factory, "gpu", config, session=session)
            summary = summarize_tracer(session.cluster.obs.tracer)
            out[name] = (result, summary)
        return out

    runs = run_once(benchmark, measure)

    print("\n== GProfiler briefs (gpu mode) ==")
    briefs = {}
    for name, (result, summary) in runs.items():
        brief = result.profile
        assert brief is not None, f"{name}: no profile attached"
        briefs[name] = brief
        cats = ", ".join(f"{k}={v:.3f}s" for k, v in
                         sorted(brief["critical_path_categories"].items()))
        print(f"{name:>10}: makespan {brief['makespan_s']:.3f} s | {cats} "
              f"| overlap {brief['copy_compute_overlap_pct']:.1%}")
        for op, cls in sorted(brief["bottlenecks"].items()):
            print(f"{'':>12}{op}: {cls}")

        # Acceptance: the critical path partitions the makespan exactly.
        total = sum(summary["critical_path"]["categories"].values())
        assert abs(total - summary["makespan_s"]) <= \
            max(1e-9, 1e-9 * summary["makespan_s"]), (name, total)

        # A GPU run must show device activity in the totals.
        assert summary["totals"]["kernel_busy_s"] > 0, name
        assert summary["totals"]["pcie_bytes"] > 0, name
        assert summary["totals"]["copy_compute_overlap_pct"] >= 0.0

        # Self-comparison never regresses.
        deltas = compare_summaries(summary, summary)
        assert not any(d.regressed for d in deltas), name

    # A degraded baseline (20% faster than current ⇒ current regressed)
    # must trip the 10% makespan threshold.
    _, summary = runs["kmeans"]
    faster = dict(summary, makespan_s=summary["makespan_s"] / 1.2)
    deltas = compare_summaries(summary, faster)
    assert any(d.metric == "makespan_s" and d.regressed for d in deltas)

    benchmark.extra_info["table"] = briefs
    record_bench("profile_briefs", briefs)
