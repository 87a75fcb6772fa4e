"""Tests for the command-line interface."""

import io
import json
from pathlib import Path

import pytest

from repro.cli import main, WORKLOADS
from repro.obs.metrics import parse_prometheus


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestCli:
    def test_list(self):
        code, text = run_cli(["list"])
        assert code == 0
        for name in WORKLOADS:
            assert name in text

    def test_specs(self):
        code, text = run_cli(["specs"])
        assert code == 0
        for gpu in ("c2050", "gtx750", "k20", "p100"):
            assert gpu in text

    def test_run_single_mode(self):
        code, text = run_cli(["run", "pointadd", "--mode", "gpu",
                              "--workers", "2", "--real", "2000",
                              "--nominal", "1e5", "--iterations", "2"])
        assert code == 0
        assert "gpu total" in text
        assert "speedup" not in text

    def test_run_both_modes_reports_speedup(self):
        code, text = run_cli(["run", "kmeans", "--workers", "2",
                              "--real", "2000", "--nominal", "1e6",
                              "--iterations", "3"])
        assert code == 0
        assert "cpu total" in text and "gpu total" in text
        assert "speedup:" in text

    def test_run_graph_workload_uses_pages(self):
        code, text = run_cli(["run", "pagerank", "--mode", "cpu",
                              "--workers", "2", "--real", "300",
                              "--nominal", "1e5", "--iterations", "2"])
        assert code == 0
        assert "cpu total" in text

    METRICS_ARGV = ["metrics", "pointadd", "--mode", "gpu", "--workers", "2",
                    "--real", "2000", "--nominal", "1e4", "--iterations", "2"]
    BANNER = "workload=pointadd mode=gpu total "
    SAMPLE = "gpu.device.h2d_bytes{device=worker0-gpu0}"

    @pytest.mark.parametrize("fmt", [None, "text", "json", "prom"])
    def test_metrics_printed_in_each_format(self, fmt):
        """One registry, three spellings; text is the default when
        printing, and a Prometheus exposition stands alone (no banner)."""
        code, text = run_cli(self.METRICS_ARGV
                             + (["--format", fmt] if fmt else []))
        assert code == 0
        if fmt == "prom":
            samples = parse_prometheus(text)
            assert samples[("gpu_device_h2d_bytes",
                            (("device", "worker0-gpu0"),))] == 80000
            return
        banner, _, body = text.partition("\n")
        assert banner.startswith(self.BANNER)
        if fmt == "json":
            assert json.loads(body)[self.SAMPLE] == 80000
        else:
            assert [self.SAMPLE, "80000"] in [line.split()
                                              for line in body.splitlines()]

    @pytest.mark.parametrize("fmt", [None, "json", "prom"])
    def test_metrics_written_to_a_file(self, fmt, tmp_path):
        """--out writes the snapshot (JSON unless prom is asked for, parent
        directories created) and prints where it went instead."""
        path = tmp_path / "deep" / "snapshot"
        code, text = run_cli(self.METRICS_ARGV + ["--out", str(path)]
                             + (["--format", fmt] if fmt else []))
        assert code == 0
        assert text.splitlines()[-1] == f"metrics: {path}"
        assert self.SAMPLE not in text
        if fmt == "prom":
            assert ("gpu_device_h2d_bytes", (("device", "worker0-gpu0"),)) \
                in parse_prometheus(path.read_text())
        else:
            assert json.loads(path.read_text())[self.SAMPLE] == 80000

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["run", "sorting"])

    @pytest.mark.parametrize("command", ["run", "trace", "metrics"])
    def test_wordcount_iterations_is_a_usage_error(self, command, capsys):
        """WordCount is one pass: more is refused, not silently dropped."""
        with pytest.raises(SystemExit) as exit_info:
            run_cli([command, "wordcount", "--workers", "2", "--real", "1000",
                     "--iterations", "3"])
        assert exit_info.value.code == 2
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert "argument --iterations: wordcount is a single-pass" in message

    @pytest.mark.parametrize("command, flags", [
        ("run", "--iterations 0"),
        ("run", "--iterations -2"),
        ("run", "--workers 0"),
        ("run", "--real 0"),
        ("run", "--nominal -5"),
        ("run", "--nominal nan"),
        ("run", "--autoscale --max-workers 0"),
        ("run", "--max-workers 4"),            # without --autoscale
        ("trace", "--iterations 0"),
        ("metrics", "--workers 0"),
        ("chaos", "--real -1"),
        ("monitor", "--nominal 0"),
    ])
    def test_bad_numeric_flag_is_a_usage_error(self, command, flags, capsys):
        """A count or size that is not positive exits 2 with one line
        naming the flag: no traceback, no silent default, no run."""
        with pytest.raises(SystemExit) as exit_info:
            run_cli([command, "pointadd", "--real", "1000", *flags.split()])
        assert exit_info.value.code == 2
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert f"argument {flags.split()[-2]}: " in message

    def test_custom_gpu_spec(self):
        code, text = run_cli(["run", "pointadd", "--mode", "gpu",
                              "--workers", "1", "--gpus", "p100",
                              "--real", "1000", "--nominal", "1e4",
                              "--iterations", "1"])
        assert code == 0
        assert "p100" in text


class TestChaosCli:
    def test_chaos_run_reports_and_matches(self):
        code, text = run_cli(["chaos", "pointadd", "--mode", "gpu",
                              "--workers", "2", "--real", "2000",
                              "--nominal", "1e4", "--iterations", "2",
                              "--gpu-fail", "worker0:0@0.1",
                              "--gpu-fail", "worker0:1@0.1"])
        assert code == 0
        assert "resilience report" in text
        assert "identical to the fault-free run" in text
        assert "CPU-fallback" in text

    def test_chaos_empty_schedule_rejected(self):
        code, text = run_cli(["chaos", "pointadd", "--workers", "2",
                              "--real", "1000", "--nominal", "1e4"])
        assert code == 2
        assert "empty fault schedule" in text

    def test_chaos_unknown_worker_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["chaos", "pointadd", "--workers", "2",
                     "--real", "1000", "--kill", "worker9@1.0"])

    def test_chaos_bad_spec_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["chaos", "pointadd", "--workers", "2",
                     "--real", "1000", "--kill", "worker1"])

    @pytest.mark.parametrize("command, flag, spec", [
        ("chaos", "--kill", "worker1"),        # no @T
        ("chaos", "--kill", "@3"),             # no worker
        ("chaos", "--kill", "worker1@soon"),   # T not a number
        ("chaos", "--kill", "worker1@-3"),     # T before the run
        ("chaos", "--kill", "worker1@nan"),
        ("chaos", "--churn", "resize@1"),      # unknown action
        ("chaos", "--churn", "drain@1"),       # drain needs a worker
        ("chaos", "--churn", "leave:worker1"),  # no @T
        ("chaos", "--churn", "join@later"),
        ("monitor", "--churn", "join@inf"),
        ("monitor", "--kill", "worker1"),
        ("monitor", "--slo", "p99"),           # no =TARGET
        ("monitor", "--slo", "=3"),
        ("monitor", "--slo", "p99=fast"),
        ("monitor", "--slo", "availability=2"),
        ("monitor", "--slo", "uptime=0.9"),    # unknown kind
        ("monitor", "--slo", "p0=5"),          # the 0th percentile
        ("monitor", "--slo", "p100=5"),        # the 100th
        ("monitor", "--slo", "p50=-3"),        # a target must be > 0 ...
        ("monitor", "--slo", "p99=0"),
        ("monitor", "--slo", "p99=nan"),       # ... and finite
        ("monitor", "--slo", "p99=inf"),
        ("chaos", "--gpu-fail", "worker0:0"),  # no @T
        ("chaos", "--gpu-fail", "worker0:gpu1@3"),     # DEV not an index
        ("chaos", "--gpu-fail", "worker0@soon"),
        ("chaos", "--gpu-fail", "worker0@3:pcie-timeout"),  # wrong family
        ("monitor", "--pcie-fault", "worker0@3:meltdown"),  # unknown kind
        ("monitor", "--pcie-fault", "@3"),
        ("profile", "--threshold", "makespan_s"),      # no =REL
        ("profile", "--threshold", "makespan_s=lots"),
        # A well-formed spec naming a worker the cluster will not have.
        ("chaos", "--kill", "worker9@1"),
        ("chaos", "--gpu-fail", "worker9:0@1"),
        ("monitor", "--pcie-fault", "elastic0@1"),     # nothing joins
        ("chaos", "--churn", "drain:worker9@1"),
    ])
    def test_malformed_spec_is_a_usage_error(self, command, flag, spec,
                                             capsys):
        """argparse's exit code 2 and a one-line message naming the flag
        and the spec, never a traceback."""
        with pytest.raises(SystemExit) as exit_info:
            run_cli([command, "pointadd", "--workers", "2",
                     "--real", "1000", flag, spec])
        assert exit_info.value.code == 2
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert f"argument {flag}: bad spec {spec!r}" in message

    def test_unknown_worker_message_lists_the_names_a_join_added(self,
                                                                 capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["chaos", "pointadd", "--workers", "2", "--real", "1000",
                     "--churn", "join:spare@1", "--churn", "join@2",
                     "--kill", "worker2@3"])
        assert exit_info.value.code == 2
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert "(workers: worker0, worker1, spare)" in message


class TestMonitorCli:
    @pytest.mark.parametrize("spec, percentile, code", [
        ("p99=1e-6", 0.99, 1),     # no job is that fast: the gate trips
        ("p50=1e6", 0.5, 0),       # every job is: it holds
        ("p5=1e6", 0.05, 0),       # the 5th percentile, not the 50th
        ("p999=1e6", 0.999, 0),
    ])
    def test_latency_slo_is_set_and_gates_the_exit_code(
            self, spec, percentile, code, tmp_path):
        summary_path = tmp_path / "summary.json"
        got, text = run_cli(["monitor", "pointadd", "--mode", "gpu",
                             "--workers", "2", "--real", "2000",
                             "--nominal", "1e4", "--iterations", "2",
                             "--slo", spec,
                             "--summary-out", str(summary_path)])
        assert got == code, text
        slo = {s["name"]: s for s in
               json.loads(summary_path.read_text())["slos"]}["job_latency"]
        assert slo["target"] == float(spec.partition("=")[2])
        assert slo["percentile"] == percentile
        assert slo["violated"] == bool(code)
        assert ("FAIL: SLO job_latency violated" in text) == bool(code)
        # the availability objective was not asked for: tracked, not gated
        assert "task_availability" in text


class TestProfileCli:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        """A small traced run written to disk via the trace subcommand."""
        path = tmp_path / "run.json"
        code, _ = run_cli(["trace", "pointadd", "--workers", "2",
                           "--real", "2000", "--nominal", "1e4",
                           "--iterations", "2", "--out", str(path)])
        assert code == 0
        return path

    def test_profile_reports_and_writes_summary(self, trace_path, tmp_path):
        summary_path = tmp_path / "summary.json"
        code, text = run_cli(["profile", str(trace_path),
                              "--json", str(summary_path)])
        assert code == 0
        assert "critical path" in text
        assert "operator bottlenecks" in text
        summary = json.loads(summary_path.read_text())
        assert summary["schema"] == "repro.profile.summary/v1"

    def test_profile_accepts_summary_input(self, trace_path, tmp_path):
        summary_path = tmp_path / "summary.json"
        run_cli(["profile", str(trace_path), "--json", str(summary_path),
                 "--quiet"])
        code, text = run_cli(["profile", str(summary_path)])
        assert code == 0
        assert "critical path" in text

    def test_gate_passes_against_itself(self, trace_path):
        code, text = run_cli(["profile", str(trace_path), "--quiet",
                              "--baseline", str(trace_path)])
        assert code == 0
        assert "within thresholds" in text

    def test_gate_fails_on_regression(self, trace_path, tmp_path):
        from repro.obs.profile import profile_file
        base = profile_file(trace_path)
        base["makespan_s"] /= 2.0  # baseline twice as fast => regression
        base_path = tmp_path / "base.json"
        base_path.write_text(json.dumps(base))
        code, text = run_cli(["profile", str(trace_path), "--quiet",
                              "--baseline", str(base_path)])
        assert code == 1
        assert "REGRESSION" in text

    def test_threshold_override_changes_verdict(self, trace_path, tmp_path):
        from repro.obs.profile import profile_file
        base = profile_file(trace_path)
        base["makespan_s"] /= 1.05  # 5% slower than baseline
        base_path = tmp_path / "base.json"
        base_path.write_text(json.dumps(base))
        args = ["profile", str(trace_path), "--quiet",
                "--baseline", str(base_path)]
        assert run_cli(args)[0] == 0                        # default 10%
        code, _ = run_cli(args + ["--threshold", "makespan_s=0.01"])
        assert code == 1

    def test_explain_self_diff_reports_no_causes(self, trace_path):
        code, text = run_cli(["profile", str(trace_path), "--quiet",
                              "--baseline", str(trace_path), "--explain"])
        assert code == 0
        assert "explain: makespan +0.000 s" in text
        assert "no causes above the noise floor" in text

    def test_explain_ranks_causes_and_writes_json(self, trace_path,
                                                  tmp_path):
        from repro.obs.explain import validate_explanation
        from repro.obs.profile import profile_file
        base = profile_file(trace_path)
        # Shrink the dominant task category in the baseline: the current
        # run then reads as a regression in exactly that bucket.
        segments = [s for s in base["critical_path"]["segments"]
                    if s.get("kind") == "task"]
        totals = {}
        for seg in segments:
            for cat, secs in seg.get("categories", {}).items():
                totals[cat] = totals.get(cat, 0.0) + secs
        top_cat = max(totals, key=totals.get)
        shrunk = 0.0
        for seg in segments:
            secs = seg.get("categories", {}).get(top_cat, 0.0)
            if secs > 0.0:
                seg["categories"][top_cat] = secs / 2.0
                seg["dur_s"] -= secs / 2.0
                shrunk += secs / 2.0
        assert shrunk > 0.0
        base["makespan_s"] -= shrunk
        base_path = tmp_path / "base.json"
        base_path.write_text(json.dumps(base))
        explain_path = tmp_path / "explain.json"
        code, text = run_cli(["profile", str(trace_path), "--quiet",
                              "--baseline", str(base_path),
                              "--explain-out", str(explain_path)])
        assert "explain: makespan +" in text
        doc = json.loads(explain_path.read_text())
        assert validate_explanation(doc) == []
        expected = "sched.gaps" if top_cat == "sched" else top_cat
        assert doc["causes"][0]["key"] == expected
        assert doc["causes"][0]["delta_s"] == pytest.approx(shrunk)
        assert doc["causes"][0]["label"] in text
        assert doc["current"]["source"] == str(trace_path)

    def test_bad_inputs_exit_2(self, tmp_path):
        missing = tmp_path / "missing.json"
        assert run_cli(["profile", str(missing)])[0] == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": []}))
        assert run_cli(["profile", str(bad)])[0] == 2

    def test_bad_threshold_spec_rejected(self, trace_path):
        with pytest.raises(SystemExit):
            run_cli(["profile", str(trace_path),
                     "--baseline", str(trace_path),
                     "--threshold", "makespan_s"])

    def test_committed_ci_trace_profiles(self):
        path = Path(__file__).resolve().parents[1] / "traces" / \
            "ci_wordcount.json"
        if not path.exists():
            pytest.skip("no committed CI trace")
        code, text = run_cli(["profile", str(path)])
        assert code == 0
        assert "worker slot occupancy" in text
