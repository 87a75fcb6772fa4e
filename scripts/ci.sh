#!/usr/bin/env bash
# CI entry point: tier-1 tests, then traced smokes, profile gates and
# benchmark smokes.
#
#   scripts/ci.sh          # everything below
#   scripts/ci.sh --fast   # tier-1 tests + lint only
#
# The full run adds: the generated payload-format, exchange, shipping,
# GWork, stage-loop and keyed-fold differentials at full Hypothesis depth,
# traced wordcount smokes
# (element-wise and vectorized) with schema validation and profile gates
# against the committed baselines in traces/ (cross-checked against their
# exported metrics), a traced iterative (PageRank-GPU) profile smoke gated
# the same way, chaos / monitor / flight-recorder / churn smokes, the
# paper-figure bench smokes
# (`python -m pytest benchmarks/` is the whole suite; they write
# BENCH_PR*.json), and the quick test of the repo's benchmark
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

echo "== lint: cache-region table is private to gmemory.py/repro.obs =="
if grep -rnE '(^|[^a-zA-Z0-9_])_regions\b' src/repro --include='*.py' \
        | grep -v 'repro/core/gmemory\.py' \
        | grep -v 'repro/obs/'; then
    echo "FAIL: _regions accessed outside core/gmemory.py and repro/obs" >&2
    exit 1
fi
echo "ok"

echo "== lint: processed-at-birth events are built only by the sim kernel =="
# `callbacks = None` (wrapped by Event._born) is how the kernel marks an event
# processed; doing that by hand anywhere else would fork the representation.
if grep -rnE '\.callbacks[[:space:]]*=[[:space:]]*None|\._born\(' src/repro --include='*.py' \
        | grep -v 'repro/common/simclock\.py' \
        | grep -v 'repro/common/resources\.py'; then
    echo "FAIL: processed event built outside common/simclock.py and common/resources.py" >&2
    exit 1
fi
echo "ok"

echo "== lint: port requests are awaited in turn, never joined through all_of =="
# all_of over raw resource requests costs a composite event (and a
# ConditionValue) per wait even when every slot is free; issue the requests
# together and yield them one after the other (common/network.py transfer).
if grep -rnE 'all_of\([^)]*(\.request\(|_?req(uest)?s?[],) ])' src/repro --include='*.py'; then
    echo "FAIL: all_of(...) over resource requests in src/ (yield each request in turn)" >&2
    exit 1
fi
echo "ok"

echo "== lint: one emission path — no sink calls or sink guards outside repro/obs =="
# Engine code states facts through Observability.emit / .span and the FACTS
# table derives every sink from them.  Outside repro/obs: no metric handles
# (np.histogram is NumPy's), no tracer recording, no monitor call except the
# named queries and configuration (trends, add_rule, set_*_target, finalize,
# summary; add_argument is argparse's `monitor` subparser), and none of the
# old guard spellings — disabled is the bus's own single `active` test.
if grep -rnE '\.(counter|gauge|histogram)\(|tracer\.(span|instant|complete|track)\(|monitor\.[a-z_]+\(|obs is (not )?None|monitor is (not )?None|(obs|tracer|monitor|registry)\.enabled' \
        src/repro --include='*.py' \
        | grep -v 'repro/obs/' \
        | grep -vE 'np\.histogram\(' \
        | grep -vE 'monitor\.(trends|add_rule|set_latency_target|set_availability_target|finalize|summary|add_argument)\('; then
    echo "FAIL: sink call or sink guard outside src/repro/obs (emit a fact instead)" >&2
    exit 1
fi
echo "ok"

echo "== lint: one payload module — no format test outside flink/payload.py =="
# What a partition payload *is* (row list | NumPy block | None) is asked in
# repro/flink/payload.py and nowhere else under flink/ and core/: no
# isinstance(..., np.ndarray), none of the retired predicates or helpers,
# and is_block() itself only where named here:
#   - flink/iterators.py apply_filter tests what a *UDF returned* (a boolean
#     mask or the filtered payload), not what the payload is;
#   - flink/shuffle.py asks is_block() to pick the serde price list
#     (_block_payloads, behind _zero_copy), to hand a vectorized key
#     extractor an empty block but not an empty row list (_key_columns), and
#     to take group_plan's single-sort fast path on a block (_buckets).
if grep -rnE 'isinstance\([^)]*np\.ndarray|is_columnar\(|columnar_compatible\(|is_block\(|def (_result_len|_is_empty|_concat|_assemble|_as_array|_row_buckets|_columnar_buckets)\(' \
        src/repro/flink src/repro/core --include='*.py' \
        | grep -v 'repro/flink/payload\.py' \
        | grep -vE 'repro/flink/iterators\.py:.*isinstance\(mask, np\.ndarray\)' \
        | grep -vE 'repro/flink/shuffle\.py:.*is_block\('; then
    echo "FAIL: payload format tested outside src/repro/flink/payload.py (use its accessors)" >&2
    exit 1
fi
echo "ok"

echo "== lint: one subtask body — a kernel chain of one, not a second copy =="
# core/gdst.py builds every GPU map-partition GWork in one _build_gwork and
# scales every output in one _output_scale (a single kernel is the chain of
# one; the retired copies are test oracles in tests/core/retired.py).
for name in _build_gwork _output_scale; do
    if [[ "$(grep -cE "^[[:space:]]*def ${name}\(" src/repro/core/gdst.py)" != 1 ]]; then
        echo "FAIL: core/gdst.py must define ${name} exactly once" >&2
        exit 1
    fi
done
echo "ok"

echo "== lint: reduce on insert — no group-then-fold keyed reduce under src/repro/flink =="
# An element (key_fn, reduce_fn) pair is one fold_by_key pass
# (flink/iterators.py); materialising every group and folding each with
# apply_reduce in a second pass is the retired composition and lives only in
# tests/flink/retired.py.
if grep -rnE 'apply_reduce\(members|apply_reduce\([^)]*\)[[:space:]]+for[[:space:]].*\.values\(\)' \
        src/repro/flink --include='*.py'; then
    echo "FAIL: per-group apply_reduce under src/repro/flink (use iterators.fold_by_key)" >&2
    exit 1
fi
echo "ok"

echo "== lint: cluster.materialized is the one record of where partitions live =="
# The per-worker partition store was written at five sites and read by
# none; loss, recovery and rebalancing all go by Partition.worker.
if grep -rnE '(^|[^a-zA-Z0-9_])(put_partition|_store)\b' src/repro/flink --include='*.py'; then
    echo "FAIL: a second partition record under src/repro/flink (use cluster.materialized)" >&2
    exit 1
fi
echo "ok"

echo "== code lines per package (scripts/sloc.py: non-blank, non-comment, non-docstring) =="
python scripts/sloc.py

if [[ "${1:-}" != "--fast" ]]; then
    echo "== generated differentials at full depth: payload formats + exchange + shipping + GWork + stage loop + keyed fold =="
    # Tier-1 caps their Hypothesis examples (tests/flink/conftest.py depth()).
    # The last entry is the property behind hash_bucket's guarantee: a keyed
    # reduce over mixed scalar key types collects the same multiset at
    # parallelism 1, 2 and 5.
    REPRO_FULL_DEPTH=1 python -m pytest -q \
        tests/flink/test_representation_differential.py \
        tests/flink/test_exchange_differential.py \
        tests/flink/test_shipping_differential.py \
        tests/core/test_gwork_differential.py \
        tests/flink/test_stage_loop_differential.py \
        tests/flink/test_keyed_fold_differential.py \
        tests/flink/test_shuffle.py::TestEqualKeysReachOneConsumer

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
    python -m pytest -q \
        benchmarks/bench_ablation_gpu_chaining.py \
        benchmarks/bench_fig8_cache.py \
        benchmarks/bench_shuffle.py \
        benchmarks/bench_elastic.py \
        benchmarks/bench_explain.py
    echo "consolidated results written to BENCH_PR1.json, BENCH_PR8.json, BENCH_PR9.json and BENCH_PR10.json"

    echo "== benchmark quick test: benchmarks/perf imports, determinism, output =="
    # A change that breaks the benchmark's imports or its fixed-seed
    # determinism check should fail here, not in the next perf run.
    python -m pytest -q benchmarks/perf/test_quick.py
fi

echo "CI OK"
