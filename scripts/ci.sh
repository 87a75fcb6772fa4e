#!/usr/bin/env bash
# CI entry point: tier-1 tests, then traced smokes, profile gates and
# benchmark smokes.
#
#   scripts/ci.sh          # everything below
#   scripts/ci.sh --fast   # tier-1 tests + lint only
#
# The full run adds, at full Hypothesis depth: the generated plans against
# the reference interpreter (tests/reference: every plan on the whole
# cpu/gpu/fallback x parallelism x payload x cache x faults matrix), and the
# payload-format, exchange, shipping, GWork, stage-loop,
# keyed-fold, built-in-aggregate and profiler checks,
# traced wordcount smokes
# (element-wise and vectorized) with schema validation and profile gates
# against the committed baselines in traces/ (cross-checked against their
# exported metrics), a traced iterative (PageRank-GPU) profile smoke gated
# the same way, chaos / monitor / flight-recorder / churn smokes, the
# paper-figure bench smokes
# (`python -m pytest benchmarks/` is the whole suite; results go to the
# untracked benchmarks/out/results.json and the run must change no tracked
# file), and the quick test of the repo's benchmark
# (benchmarks/perf — imports, determinism check, output shape).

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}src"

echo "== tier-1: unit + integration tests =="
# The duration is printed for the record (ROADMAP re-anchor: 24.5 s on the
# reference box); there is no wall-clock gate.
tier1_start=$SECONDS
python -m pytest -q --durations=10
echo "tier-1 wall time: $((SECONDS - tier1_start)) s"

# Every grep-lint is a row of scripts/lint.py: the retired spelling, where it
# may still appear, the message, and the PR whose parent it trips on.
python scripts/lint.py

echo "== code lines per package (scripts/sloc.py: non-blank, non-comment, non-docstring) =="
python scripts/sloc.py

if [[ "${1:-}" != "--fast" ]]; then
    echo "== generated checks at full depth: plans vs the reference + payload formats + exchange + shipping + GWork + stage loop + keyed fold + built-in aggregates + profiler + chaos draw =="
    # Tier-1 caps their Hypothesis examples (tests/flink/conftest.py depth()).
    # The last entry is the property behind hash_bucket's guarantee: a keyed
    # reduce over mixed scalar key types collects the same multiset at
    # parallelism 1, 2 and 5.
    REPRO_FULL_DEPTH=1 python -m pytest -q \
        tests/reference/ \
        tests/flink/test_representation_differential.py \
        tests/flink/test_exchange_differential.py \
        tests/flink/test_shipping_differential.py \
        tests/core/test_gwork_differential.py \
        tests/flink/test_stage_loop_differential.py \
        tests/flink/test_keyed_fold_differential.py \
        tests/flink/test_builtin_aggregates.py \
        tests/flink/test_shuffle.py::TestEqualKeysReachOneConsumer \
        tests/obs/test_profile_differential.py \
        tests/flink/test_chaos.py::TestChaosSchedule::test_random_spares_one_worker

    echo "== traced bench smoke: wordcount + schema validation + cross-check =="
    python -m repro trace wordcount --workers 2 --real 4000 --nominal 1e6 \
        --out traces/ci_wordcount.json \
        --metrics-out traces/ci_wordcount_metrics.json
    python -m repro.obs.validate traces/ci_wordcount.json
    # Every registry metric FACTS derives from a drawn fact, recomputed
    # from the exported trace, must equal the exported snapshot.
    python -m repro.obs.validate --cross traces/ci_wordcount.json \
        traces/ci_wordcount_metrics.json

    echo "== profile gate: critical path + regression vs committed baseline =="
    # Profiles the traced smoke (the summary schema is validated by the
    # profile command itself) and compares against the committed baseline.
    # Generous thresholds: the simulated clock is deterministic, so any
    # drift at all means the model changed — but the gate only *fails* on
    # substantial slowdowns.  Refresh the baseline deliberately with:
    #   python -m repro profile traces/ci_wordcount.json --quiet \
    #       --json traces/ci_wordcount_profile_baseline.json
    # --explain attributes any makespan drift to a ranked cause list so a
    # tripped gate names its culprit in the CI log.
    python -m repro profile traces/ci_wordcount.json \
        --json traces/ci_profile_summary.json \
        --baseline traces/ci_wordcount_profile_baseline.json \
        --threshold makespan_s=0.25 --threshold critical_path=0.60 \
        --threshold operator_wall=0.60 --threshold overlap_pct=0.50 \
        --explain

    echo "== explain self-diff smoke: a summary vs itself has no causes =="
    explain_out=$(python -m repro profile traces/ci_wordcount.json --quiet \
        --baseline traces/ci_wordcount.json --explain)
    echo "$explain_out" | grep -q 'no causes above the noise floor'

    echo "== traced bench smoke: wordcount (vectorized columnar) + profile gate =="
    # Block-vectorized operators + zero-copy columnar shuffle: same counts,
    # different charge model — gated against its own committed baseline.
    # Refresh deliberately with:
    #   python -m repro profile traces/ci_wordcount_vectorized.json --quiet \
    #       --json traces/ci_wordcount_vectorized_profile_baseline.json
    python -m repro trace wordcount --workers 2 --real 4000 --nominal 1e6 \
        --vectorized \
        --out traces/ci_wordcount_vectorized.json
    python -m repro.obs.validate traces/ci_wordcount_vectorized.json
    python -m repro profile traces/ci_wordcount_vectorized.json \
        --json traces/ci_vectorized_profile_summary.json \
        --baseline traces/ci_wordcount_vectorized_profile_baseline.json \
        --threshold makespan_s=0.25 --threshold critical_path=0.60 \
        --threshold operator_wall=0.60 --threshold overlap_pct=0.50 \
        --explain

    echo "== traced iterative smoke: 3-iteration PageRank-GPU, repeated operator names =="
    # WordCount emits every operator once; an iterative job emits each once
    # per iteration under one name, and the profile must sum them into one
    # consistent entry (occurrences == iterations) that still validates.
    # Gated against its own committed baseline like the WordCount traces (a
    # profiler bug on repeated operators once hid because CI only ever
    # profiled WordCount).  Refresh deliberately with:
    #   python -m repro profile traces/ci_pagerank.json --quiet \
    #       --json traces/ci_pagerank_profile_baseline.json
    python -m repro trace pagerank --mode gpu --workers 2 --real 500 \
        --nominal 1e5 --iterations 3 --out traces/ci_pagerank.json \
        --metrics-out traces/ci_pagerank_metrics.json
    python -m repro.obs.validate traces/ci_pagerank.json
    python -m repro.obs.validate --cross traces/ci_pagerank.json \
        traces/ci_pagerank_metrics.json
    python -m repro profile traces/ci_pagerank.json --quiet \
        --json traces/ci_pagerank_profile_summary.json \
        --baseline traces/ci_pagerank_profile_baseline.json \
        --threshold makespan_s=0.25 --threshold critical_path=0.60 \
        --threshold operator_wall=0.60 --threshold overlap_pct=0.50 \
        --explain
    python -m repro.obs.validate traces/ci_pagerank_profile_summary.json
    python - <<'PY'
import json
entry = json.load(open("traces/ci_pagerank_profile_summary.json"))[
    "operators"]["pagerank-sum"]
assert entry["occurrences"] == 3, entry
assert entry["task_latency_s"]["count"] == 3 * entry["parallelism"], entry
PY

    echo "== chaos smoke: wordcount survives worker kill + GPU fault =="
    # Exits non-zero unless the faulted run's result is identical to the
    # fault-free run's; the trace must also pass schema validation.
    python -m repro chaos wordcount --mode gpu --workers 4 --real 4000 \
        --kill worker1@150 --gpu-fail worker0:0@10 --backoff 0.05 \
        --out traces/ci_chaos_wordcount.json \
        --metrics-out traces/ci_chaos_wordcount_metrics.json
    python -m repro.obs.validate traces/ci_chaos_wordcount.json
    python -m repro.obs.validate --cross traces/ci_chaos_wordcount.json \
        traces/ci_chaos_wordcount_metrics.json

    echo "== monitored chaos smoke: alerts fire+resolve, summary + dashboard =="
    # Runs wordcount under a worker kill with the online monitor: the
    # command exits non-zero unless worker_unhealthy fired AND resolved
    # (and on any unresolved critical alert); availability=0.5 is a
    # deliberately forgiving gate so retry burn is reported, not fatal.
    rm -rf traces/ci_postmortems
    python -m repro monitor wordcount --mode gpu --workers 4 --real 4000 \
        --kill worker1@150 --gpu-fail worker0:0@10 --backoff 0.05 \
        --expect-alert worker_unhealthy --slo availability=0.5 \
        --postmortem-dir traces/ci_postmortems \
        --summary-out traces/ci_monitor_summary.json \
        --dashboard-out traces/ci_monitor_dashboard.html
    python -m repro.obs.validate traces/ci_monitor_summary.json
    test -s traces/ci_monitor_dashboard.html
    grep -q '<svg' traces/ci_monitor_dashboard.html

    echo "== flight recorder smoke: bundles validate and render =="
    # The fault injections and alert firings above must each have dumped
    # a post-mortem bundle; every bundle is schema-checked, then rendered.
    python -m repro.obs.validate traces/ci_postmortems/postmortem-*.json
    python -m repro postmortem traces/ci_postmortems > /dev/null

    echo "== churn smoke: wordcount with a mid-job join + drain, bit-identical =="
    # Elastic membership must change placement/timing only, never the
    # answer: the command exits non-zero unless the churned run's result
    # is identical to the static run's.  The trace (join/drain/rebalance
    # instants included) must keep validating against the schema.
    python -m repro chaos wordcount --mode gpu --workers 4 --real 4000 \
        --churn join@150 --churn drain:worker1@175 --backoff 0.05 \
        --out traces/ci_churn_wordcount.json \
        --metrics-out traces/ci_churn_wordcount_metrics.json
    python -m repro.obs.validate traces/ci_churn_wordcount.json
    python -m repro.obs.validate --cross traces/ci_churn_wordcount.json \
        traces/ci_churn_wordcount_metrics.json

    echo "== churn profile gate: regression vs committed baseline =="
    # Same deterministic-clock contract as the fault-free gate: refresh
    # the baseline deliberately with:
    #   python -m repro profile traces/ci_churn_wordcount.json --quiet \
    #       --json traces/ci_churn_wordcount_profile_baseline.json
    python -m repro profile traces/ci_churn_wordcount.json \
        --json traces/ci_churn_profile_summary.json \
        --baseline traces/ci_churn_wordcount_profile_baseline.json \
        --threshold makespan_s=0.25 --threshold critical_path=0.60 \
        --threshold operator_wall=0.60 --threshold overlap_pct=0.50 \
        --explain

    echo "== bench smoke: GPU chaining ablation + cache policies + zero-copy shuffle + elasticity + explainer =="
    # Results land in the untracked benchmarks/out/results.json; the tracked
    # record (BENCH.jsonl) is appended to only by `python benchmarks/paper.py
    # record PR`, so a bench run leaves `git status` as it found it.
    tree_before=$(git status --porcelain)
    python -m pytest -q \
        benchmarks/bench_ablation_gpu_chaining.py \
        benchmarks/bench_fig8_cache.py \
        benchmarks/bench_shuffle.py \
        benchmarks/bench_elastic.py \
        benchmarks/bench_explain.py
    if [[ "$(git status --porcelain)" != "$tree_before" ]]; then
        echo "FAIL: the bench run changed the working tree:" >&2
        git status --porcelain >&2
        exit 1
    fi

    echo "== benchmark quick test: benchmarks/perf imports, determinism, output =="
    # A change that breaks the benchmark's imports or its fixed-seed
    # determinism check should fail here, not in the next perf run.
    python -m pytest -q benchmarks/perf/test_quick.py
fi

echo "CI OK"
