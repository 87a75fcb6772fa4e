"""GProfiler tests: hand-built span DAGs with known answers.

Every trace here is synthetic — ``PSpan`` rows with explicit start/end — so
the expected critical path, attribution and utilization numbers are
computable by hand.
"""

import json
import math
from pathlib import Path

import pytest

from repro.obs.profile import (
    CATEGORIES,
    ProfileTrace,
    PSpan,
    SUMMARY_SCHEMA,
    TICK_S,
    _intersect,
    _subtract,
    _union,
    compare_summaries,
    extract_critical_path,
    profile_file,
    render_comparison,
    render_text,
    summarize,
    summarize_tracer,
    validate_profile_summary,
)
from repro.obs.trace import Tracer

TRACES_DIR = Path(__file__).resolve().parents[2] / "traces"


class Clock:
    now = 0.0


class Spans:
    """Spans with explicit bounds, on lanes numbered in first-use order."""

    def __init__(self):
        self.rows = []
        self.pids = {}
        self.tids = {}

    def add(self, name, cat, process, thread, start, end, **args):
        pid = self.pids.setdefault(process, len(self.pids) + 1)
        tid = self.tids.setdefault((process, thread), len(self.tids) + 1)
        self.rows.append(PSpan(name, cat, start, end - start, pid, tid,
                               process, thread, args))

    def trace(self) -> ProfileTrace:
        return ProfileTrace(
            self.rows, {pid: p for p, pid in self.pids.items()},
            {(self.pids[p], tid): t for (p, t), tid in self.tids.items()})

    def to_chrome(self) -> dict:
        """The Chrome trace-event document of these spans."""
        meta = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                 "args": {"name": p}} for p, pid in self.pids.items()]
        meta += [{"name": "thread_name", "ph": "M", "pid": self.pids[p],
                  "tid": tid, "args": {"name": t}}
                 for (p, t), tid in self.tids.items()]
        return {"traceEvents": meta + [
            {"name": r.name, "cat": r.cat, "ph": "X", "ts": r.ts * 1e6,
             "dur": r.dur * 1e6, "pid": r.pid, "tid": r.tid, "args": r.args}
            for r in self.rows]}


def tracer() -> Spans:
    return Spans()


def add_job(t, start, end, name="j"):
    t.add(f"job:{name}", "job", "master", "jobmanager", start, end)


def add_submit(t, start, end):
    t.add("job.submit", "job", "master", "jobmanager", start, end)


def add_task(t, op, start, end, worker="worker0", slot="slot0", subtask=0):
    t.add(f"{op}[{subtask}]", "task", worker, slot, start, end, op=op,
          subtask=subtask)


def add_operator(t, op, start, end, parallelism=1):
    t.add(f"op:{op}", "operator", "master", "jobmanager", start, end, op=op,
          parallelism=parallelism)


def add_exchange(t, op, start, end, nbytes=0):
    t.add(f"exchange:{op}", "shuffle", "master", "exchange", start, end,
          op=op, bytes=nbytes)


def add_device(t, name, lane, start, end, device="worker0-gpu0", **args):
    t.add(name, "gpu.device", device, lane, start, end, **args)


def add_hdfs(t, start, end, worker="worker0", nbytes=0):
    t.add("hdfs.read", "hdfs", worker, "hdfs", start, end, nbytes=nbytes)


def pt(t: Spans) -> ProfileTrace:
    return t.trace()


class TestIntervalMath:
    def test_union_merges_and_sorts(self):
        assert _union([(3.0, 4.0), (0.0, 1.0), (0.5, 2.0)]) == \
            [(0.0, 2.0), (3.0, 4.0)]

    def test_union_drops_empty(self):
        assert _union([(1.0, 1.0), (2.0, 1.5)]) == []

    def test_union_merges_within_one_tick_only(self):
        # Spans abutting within a clock tick are one run; more is a gap.
        assert _union([(0.0, 1.0), (1.0 + TICK_S, 2.0)]) == [(0.0, 2.0)]
        late = 1.0 + 1.5 * TICK_S
        assert _union([(0.0, 1.0), (late, 2.0)]) == [(0.0, 1.0), (late, 2.0)]

    def test_subtract(self):
        assert _subtract([(0.0, 10.0)], [(2.0, 3.0), (5.0, 12.0)]) == \
            [(0.0, 2.0), (3.0, 5.0)]
        # One interval of ``minus`` reaching into the next one of ``base``.
        assert _subtract([(0.0, 1.0), (2.0, 3.0)], [(0.5, 2.5)]) == \
            [(0.0, 0.5), (2.5, 3.0)]

    def test_intersect(self):
        assert _intersect([(0.0, 5.0), (7.0, 9.0)], [(4.0, 8.0)]) == \
            [(4.0, 5.0), (7.0, 8.0)]


class TestCriticalPath:
    def linear_job(self):
        """submit(0-1) → A(1-5) → shuffle(5-6) → B(6-9) → idle(9-10)."""
        t = tracer()
        add_job(t, 0.0, 10.0)
        add_submit(t, 0.0, 1.0)
        add_task(t, "A", 1.0, 5.0)
        add_exchange(t, "B", 5.0, 6.0)
        add_task(t, "B", 6.0, 9.0)
        return pt(t)

    def test_segments_partition_the_window(self):
        segments = extract_critical_path(self.linear_job())
        kinds = [(s.kind, s.t0, s.t1) for s in segments]
        assert kinds == [("submit", 0.0, 1.0), ("task", 1.0, 5.0),
                         ("shuffle", 5.0, 6.0), ("task", 6.0, 9.0),
                         ("wait", 9.0, 10.0)]
        # Exact partition: contiguous, covering [0, 10].
        for a, b in zip(segments, segments[1:]):
            assert a.t1 == b.t0
        assert sum(s.dur for s in segments) == 10.0

    def test_category_attribution_sums_to_makespan(self):
        summary = summarize(self.linear_job())
        cats = summary["critical_path"]["categories"]
        assert math.isclose(sum(cats.values()), summary["makespan_s"],
                            rel_tol=0, abs_tol=1e-9)
        assert cats["sched"] == 2.0       # submit + trailing wait
        assert cats["shuffle"] == 1.0
        assert cats["cpu"] == 7.0         # no device spans -> all CPU

    def test_fine_spans_refine_task_segments(self):
        t = tracer()
        add_job(t, 0.0, 5.0)
        add_task(t, "A", 0.0, 5.0)
        add_device(t, "h2d", "copy:h2d", 0.5, 1.0, nbytes=100)
        add_device(t, "k", "kernel", 1.0, 3.0)
        cats = summarize(pt(t))["critical_path"]["categories"]
        assert cats["h2d"] == 0.5
        assert cats["kernel"] == 2.0
        assert cats["cpu"] == 2.5
        assert sum(cats.values()) == 5.0

    def test_kernel_wins_overlap_priority(self):
        # A copy overlapping a kernel attributes the overlap to the kernel.
        t = tracer()
        add_job(t, 0.0, 4.0)
        add_task(t, "A", 0.0, 4.0)
        add_device(t, "k", "kernel", 1.0, 3.0)
        add_device(t, "h2d", "copy:h2d", 0.0, 2.0)
        cats = summarize(pt(t))["critical_path"]["categories"]
        assert cats["kernel"] == 2.0
        assert cats["h2d"] == 1.0         # only the non-overlapped half
        assert cats["cpu"] == 1.0

    def test_other_workers_devices_do_not_leak(self):
        t = tracer()
        add_job(t, 0.0, 4.0)
        add_task(t, "A", 0.0, 4.0, worker="worker1")
        add_device(t, "k", "kernel", 0.0, 4.0, device="worker0-gpu0")
        cats = summarize(pt(t))["critical_path"]["categories"]
        assert cats["kernel"] == 0.0      # worker1 has no gpu spans
        assert cats["cpu"] == 4.0

    def test_longest_reaching_span_wins(self):
        # Two tasks end at 10; the one starting earlier carries the path.
        t = tracer()
        add_job(t, 0.0, 10.0)
        add_task(t, "A", 0.0, 10.0)
        add_task(t, "B", 6.0, 10.0, slot="slot1", subtask=1)
        segments = extract_critical_path(pt(t))
        assert [s.name for s in segments] == ["A[0]"]

    def test_gap_becomes_wait_segment(self):
        t = tracer()
        add_job(t, 0.0, 10.0)
        add_task(t, "A", 0.0, 2.0)
        add_task(t, "B", 6.0, 10.0)
        segments = extract_critical_path(pt(t))
        assert [(s.kind, s.t0, s.t1) for s in segments] == \
            [("task", 0.0, 2.0), ("wait", 2.0, 6.0), ("task", 6.0, 10.0)]


class TestOperatorClassification:
    def op_trace(self, kernel_s=0.0, copy_s=0.0, busy_to=4.0):
        t = tracer()
        add_job(t, 0.0, 5.0)
        add_operator(t, "A", 0.0, 4.0, parallelism=2)
        add_task(t, "A", 0.0, busy_to)
        if kernel_s:
            add_device(t, "k", "kernel", 0.0, kernel_s)
        if copy_s:
            add_device(t, "h2d", "copy:h2d", kernel_s, kernel_s + copy_s)
        return summarize(pt(t))["operators"]["A"]

    def test_cpu_bound(self):
        entry = self.op_trace()
        assert entry["class"] == "cpu_bound"
        assert entry["shares"] == {"cpu": 1.0}
        assert entry["dominant_share"] == 1.0
        assert entry["parallelism"] == 2

    def test_kernel_bound(self):
        entry = self.op_trace(kernel_s=3.0)
        assert entry["class"] == "kernel_bound"
        assert entry["shares"]["kernel"] == 0.75
        assert entry["dominant_share"] == 0.75

    def test_pcie_bound(self):
        entry = self.op_trace(kernel_s=1.0, copy_s=2.5)
        assert entry["class"] == "pcie_bound"
        assert entry["shares"]["h2d"] == pytest.approx(0.625)

    def test_sched_share_where_no_subtask_runs(self):
        entry = self.op_trace(busy_to=1.0)
        assert entry["shares"]["cpu"] == 0.25
        assert entry["shares"]["sched"] == 0.75
        assert entry["class"] == "sched_bound"

    def test_shares_sum_to_one(self):
        entry = self.op_trace(kernel_s=1.0, copy_s=1.0, busy_to=3.0)
        assert sum(entry["shares"].values()) == pytest.approx(1.0)


class TestUtilization:
    def test_overlap_and_pcie_rate(self):
        t = tracer()
        add_job(t, 0.0, 10.0)
        add_device(t, "k", "kernel", 0.0, 6.0)
        add_device(t, "h2d", "copy:h2d", 4.0, 8.0, nbytes=4_000_000_000)
        add_device(t, "d2h", "copy:d2h", 8.0, 9.0, nbytes=1_000_000_000)
        dev = summarize(pt(t))["devices"]["worker0-gpu0"]
        assert dev["kernel_busy_s"] == 6.0
        assert dev["kernel_busy_pct"] == pytest.approx(0.6)
        assert dev["copy_busy_s"] == 5.0
        assert dev["copy_compute_overlap_s"] == 2.0   # kernel ∩ h2d
        assert dev["copy_compute_overlap_pct"] == pytest.approx(0.4)
        assert dev["pcie_bytes_per_s"] == pytest.approx(1e9)

    def test_overlapping_copies_count_once(self):
        # A full-duplex device copies both ways at once: busy is the union.
        t = tracer()
        add_job(t, 0.0, 10.0)
        add_device(t, "h2d", "copy:h2d", 0.0, 4.0, nbytes=3_000_000_000)
        add_device(t, "d2h", "copy:d2h", 2.0, 6.0, nbytes=3_000_000_000)
        dev = summarize(pt(t))["devices"]["worker0-gpu0"]
        assert dev["copy_busy_s"] == 6.0
        assert dev["copy_busy_pct"] == pytest.approx(0.6)
        assert dev["pcie_bytes_per_s"] == pytest.approx(1e9)

    def test_worker_slot_occupancy(self):
        t = tracer()
        add_job(t, 0.0, 10.0)
        add_task(t, "A", 0.0, 5.0, slot="slot0")
        add_task(t, "B", 0.0, 10.0, slot="slot1", subtask=1)
        workers = summarize(pt(t))["workers"]
        assert workers["worker0"]["slots"] == 2
        assert workers["worker0"]["slot_busy_s"] == 15.0
        assert workers["worker0"]["occupancy_pct"] == pytest.approx(0.75)

    def test_overlapping_spans_on_one_slot_count_once(self):
        t = tracer()
        add_job(t, 0.0, 10.0)
        add_task(t, "A", 0.0, 6.0)
        add_task(t, "A", 4.0, 8.0, subtask=1)
        workers = summarize(pt(t))["workers"]
        assert workers["worker0"]["slot_busy_s"] == 8.0


class TestEdgeCases:
    def test_empty_trace(self):
        summary = summarize(pt(tracer()))
        assert summary["makespan_s"] == 0.0
        assert summary["critical_path"]["segments"] == []
        assert summary["operators"] == {}
        assert validate_profile_summary(summary) == []

    def test_disabled_tracer_profiles_as_empty(self):
        t = Tracer(Clock(), enabled=False)
        with t.span("s", "task", t.track("worker0", "slot0")):
            pass
        summary = summarize_tracer(t)
        assert summary["span_count"] == 0
        assert summary["makespan_s"] == 0.0

    def test_single_span(self):
        t = tracer()
        add_job(t, 1.0, 3.0)
        summary = summarize(pt(t))
        assert summary["makespan_s"] == 2.0
        # Nothing to chain through: the whole window is scheduling wait.
        assert summary["critical_path"]["categories"]["sched"] == 2.0
        assert validate_profile_summary(summary) == []

    def test_no_job_span_falls_back_to_full_extent(self):
        t = tracer()
        add_task(t, "A", 2.0, 6.0)
        summary = summarize(pt(t))
        assert summary["makespan_s"] == 4.0
        assert summary["critical_path"]["categories"]["cpu"] == 4.0

    def test_render_text_smoke(self):
        t = tracer()
        add_job(t, 0.0, 5.0)
        add_operator(t, "A", 0.0, 4.0)
        add_task(t, "A", 0.0, 4.0)
        text = render_text(summarize(pt(t)))
        assert "critical path" in text
        assert "cpu_bound" in text


class TestRealTraces:
    def test_ci_wordcount_trace(self):
        path = TRACES_DIR / "ci_wordcount.json"
        if not path.exists():
            pytest.skip("no committed CI trace")
        summary = profile_file(path)
        assert validate_profile_summary(summary) == []
        cats = summary["critical_path"]["categories"]
        assert math.isclose(sum(cats.values()), summary["makespan_s"],
                            rel_tol=1e-9, abs_tol=1e-9)
        assert summary["operators"]

    def test_chaos_trace_profiles_cleanly(self):
        path = TRACES_DIR / "ci_chaos_wordcount.json"
        if not path.exists():
            pytest.skip("no committed chaos trace")
        summary = profile_file(path)
        assert validate_profile_summary(summary) == []
        assert summary["makespan_s"] > 0

    def test_traced_run_profile(self):
        # End-to-end: a live traced GPU run profiles with exact attribution.
        import numpy as np
        from repro.core import GFlinkCluster, GFlinkSession
        from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
        from repro.gpu import KernelSpec

        cluster = GFlinkCluster(ClusterConfig(
            n_workers=1, cpu=CPUSpec(cores=2), gpus_per_worker=("c2050",),
            flink=FlinkConfig(enable_tracing=True)))
        session = GFlinkSession(cluster)
        session.register_kernel(KernelSpec(
            "double", lambda i, p: {"out": i["in"] * 2.0},
            flops_per_element=2.0))
        data = np.arange(4000, dtype=np.float64)
        ds = session.from_collection(data, element_nbytes=8,
                                     parallelism=2).persist()
        ds.materialize()
        ds.gpu_map_partition("double").count()
        summary = summarize_tracer(cluster.obs.tracer)
        assert validate_profile_summary(summary) == []
        cats = summary["critical_path"]["categories"]
        assert math.isclose(sum(cats.values()), summary["makespan_s"],
                            rel_tol=1e-9, abs_tol=1e-9)
        assert summary["totals"]["kernel_busy_s"] > 0


class TestSummaryValidation:
    def good(self):
        t = tracer()
        add_job(t, 0.0, 2.0)
        return summarize(pt(t))

    def test_good_summary_passes(self):
        assert validate_profile_summary(self.good()) == []

    def test_rejects_wrong_root_and_schema(self):
        assert validate_profile_summary([]) == \
            ["summary root must be an object"]
        bad = dict(self.good(), schema="nope")
        assert any(SUMMARY_SCHEMA in e
                   for e in validate_profile_summary(bad))

    def test_rejects_attribution_mismatch(self):
        bad = self.good()
        bad["critical_path"]["categories"]["cpu"] += 1.0
        assert any("sum" in e for e in validate_profile_summary(bad))

    def test_rejects_missing_category_and_bad_class(self):
        bad = self.good()
        del bad["critical_path"]["categories"]["kernel"]
        bad["operators"] = {"A": {"class": "fast"}}
        errors = validate_profile_summary(bad)
        assert any("kernel missing" in e for e in errors)
        assert any("*_bound" in e for e in errors)


class TestRegressionGate:
    def summary(self, makespan=10.0, kernel=6.0, op_wall=8.0, overlap=0.5):
        t = tracer()
        add_job(t, 0.0, makespan)
        add_operator(t, "A", 0.0, op_wall)
        add_task(t, "A", 0.0, op_wall)
        add_device(t, "k", "kernel", 0.0, kernel)
        add_device(t, "h2d", "copy:h2d", kernel - overlap * 2.0,
                   kernel + (1.0 - overlap) * 2.0, nbytes=100)
        return summarize(pt(t))

    def test_identical_summaries_pass(self):
        s = self.summary()
        deltas = compare_summaries(s, s)
        assert deltas and not any(d.regressed for d in deltas)

    def test_makespan_regression_detected(self):
        cur, base = self.summary(makespan=12.0), self.summary()
        deltas = compare_summaries(cur, base)
        bad = [d for d in deltas if d.regressed]
        assert any(d.metric == "makespan_s" for d in bad)
        assert "REGRESSION" in render_comparison(deltas)

    def test_improvement_never_regresses(self):
        cur, base = self.summary(makespan=8.0, kernel=4.0, op_wall=6.0), \
            self.summary()
        assert not any(d.regressed for d in compare_summaries(cur, base))

    def test_overlap_drop_is_a_regression(self):
        cur = self.summary(overlap=0.1)
        base = self.summary(overlap=0.9)
        deltas = compare_summaries(cur, base)
        assert any(d.metric == "totals.copy_compute_overlap_pct"
                   and d.regressed for d in deltas)

    def test_overlap_gain_is_not(self):
        # (Only the overlap metric is checked: moving the copy window also
        # shifts critical-path cpu/h2d seconds, which may trip their own
        # thresholds — that is the gate working as intended.)
        cur = self.summary(overlap=0.9)
        base = self.summary(overlap=0.1)
        deltas = compare_summaries(cur, base)
        assert not any(d.metric == "totals.copy_compute_overlap_pct"
                       and d.regressed for d in deltas)

    def test_threshold_overrides(self):
        cur, base = self.summary(makespan=10.5), self.summary()
        assert not any(d.regressed for d in compare_summaries(cur, base))
        deltas = compare_summaries(cur, base, {"makespan_s": 0.01})
        assert any(d.metric == "makespan_s" and d.regressed
                   for d in deltas)

    def test_family_threshold_applies_to_categories(self):
        cur, base = self.summary(kernel=7.9), self.summary(kernel=6.0)
        deltas = compare_summaries(cur, base, {"critical_path": 0.05})
        assert any(d.metric == "critical_path.kernel" and d.regressed
                   for d in deltas)

    def test_tiny_absolute_values_are_noise(self):
        base, cur = self.summary(), self.summary()
        base["critical_path"]["categories"]["d2h"] = 1e-9
        cur["critical_path"]["categories"]["d2h"] = 1e-7  # 100x but tiny
        assert not any(d.regressed
                       for d in compare_summaries(cur, base))

    def test_added_operator_is_flagged_as_regression(self):
        base, cur = self.summary(), self.summary()
        cur["operators"]["new"] = {"wall_s": 99.0}
        deltas = compare_summaries(cur, base)
        added = [d for d in deltas if d.metric == "operator.new.wall_s"]
        assert len(added) == 1
        assert added[0].regressed
        assert added[0].base == 0.0 and added[0].current == 99.0
        assert math.isinf(added[0].rel_change)
        assert "operator.new.wall_s" in render_comparison(deltas)

    def test_removed_operator_is_reported_not_regressed(self):
        base, cur = self.summary(), self.summary()
        base["operators"]["gone"] = {"wall_s": 1.0}
        deltas = compare_summaries(cur, base)
        removed = [d for d in deltas if d.metric == "operator.gone.wall_s"]
        assert len(removed) == 1
        assert not removed[0].regressed
        assert removed[0].base == 1.0 and removed[0].current == 0.0
        assert removed[0].rel_change == -1.0

    def test_added_operator_below_noise_floor_is_skipped(self):
        base, cur = self.summary(), self.summary()
        cur["operators"]["tiny"] = {"wall_s": 1e-9}
        cur["operators"]["junk"] = {"wall_s": "n/a"}
        metrics = {d.metric for d in compare_summaries(cur, base)}
        assert "operator.tiny.wall_s" not in metrics
        assert "operator.junk.wall_s" not in metrics

    def test_empty_summaries_compare_without_error(self):
        deltas = compare_summaries({}, {})
        assert not any(d.regressed for d in deltas)

    def test_partial_summary_missing_operators_section(self):
        base, cur = self.summary(), self.summary()
        del cur["operators"]
        deltas = compare_summaries(cur, base)
        # Every baseline operator shows up as removed, none regressed.
        removed = [d for d in deltas if d.metric.startswith("operator.")]
        assert removed and not any(d.regressed for d in removed)

    def test_operator_wall_threshold_applies_to_added(self):
        base, cur = self.summary(), self.summary()
        cur["operators"]["new"] = {"wall_s": 5.0}
        deltas = compare_summaries(cur, base,
                                   {"operator.new.wall_s": 0.5})
        added = [d for d in deltas if d.metric == "operator.new.wall_s"]
        assert added and added[0].threshold == 0.5 and added[0].regressed


class TestProfileFile:
    def test_profiles_trace_and_roundtrips_summary(self, tmp_path):
        t = tracer()
        add_job(t, 0.0, 2.0)
        trace_path = tmp_path / "t.json"
        trace_path.write_text(json.dumps(t.to_chrome()))
        summary = profile_file(trace_path)
        assert summary["makespan_s"] == 2.0
        summary_path = tmp_path / "s.json"
        summary_path.write_text(json.dumps(summary))
        assert profile_file(summary_path) == summary

    def test_rejects_unrecognized_document(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"rows": []}))
        with pytest.raises(ValueError):
            profile_file(path)
