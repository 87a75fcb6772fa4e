#!/usr/bin/env python3
"""The repo's benchmark: four paper-scale workloads on two clocks.

    python benchmarks/perf/run.py [--seed S] [--sets K] [--quick]

runs every workload (timed jobs, check phase, one profiled job) and the
per-layer probes, prints one JSON document on stdout and a table on stderr,
and writes ``out/<workload>.trace.json``.  The driver's form

    python3 benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0|1

runs one workload for ``T`` seconds and prints, as the last stdout line,
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer ones (``--trace 1``).

This process only orchestrates: every job and probe runs in a child process,
one at a time.  See README.md for what each metric means and which clock it
is on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
OUT = HERE / "out"

#: Seed for checking a later claim on inputs it was not developed against.
HELD_OUT_SEED = 20180116

#: End-to-end metrics on the host's clock: --sets lets them differ by their
#: bound.  Everything else is simulated and must repeat bit for bit.
HOST_CLOCK = ("setup_s", "job_wall_s", "peak_rss_mb")

#: What worker.calibrate() takes on the box the baseline was recorded on,
#: when that box is quiet.  Timings are stated at this speed.
CAL_REFERENCE_S = 0.0140

#: A child that has not finished by then is hung; subprocess.run kills it.
CHILD_TIMEOUT_S = 150

PHASES = ("cluster_build", "input_gen", "hdfs_load", "run", "obs_collect",
          "obs_export", "obs_summarize")
COUNT_UNITS = {
    "flink.subtasks": "count", "flink.retries": "count",
    "flink.pipeline_backpressure_stalls": "count",
    "flink.shuffle.bytes": "B", "flink.shuffle.zero_copy_bytes": "B",
    "hdfs.read_bytes": "B", "hdfs.write_bytes": "B",
    "gpu.kernels_launched": "count", "gpu.pcie_bytes": "B",
    "gpu.kernel_sim_s": "sim_s", "obs.trace_events": "count",
}


def child(script: str, *args) -> dict:
    """Run one child to completion and parse the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(HERE / script), *map(str, args)],
        env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout)


def host_timing(values, slowdown=1.0) -> dict:
    """Wall-clock samples -> their lower quartile at the reference speed.

    Interference on a shared box only ever adds time, in bursts of seconds
    to minutes: the lower quartile shrugs off a burst covering most of a
    run, and ``slowdown`` (see :func:`host_slowdown`) takes out the slow
    phases that cover all of it.  The raw quartiles ride along.
    """
    q1, median, q3 = statistics.quantiles(values, n=4) \
        if len(values) > 1 else values * 3
    return {"value": q1 / slowdown, "unit": "s", "samples": len(values),
            "raw_q1": q1, "raw_median": median, "raw_q3": q3}


def host_slowdown(calibration_s) -> float:
    """How much slower than the reference this host ran during the jobs."""
    return host_timing(calibration_s)["raw_q1"] / CAL_REFERENCE_S


def scalar(value, unit) -> dict:
    return {"value": value, "unit": unit}


def phase_durations(marks) -> dict:
    """``[(name, t), ...]`` stamps of one job -> seconds per phase."""
    return {name: t1 - t0 for (_, t0), (name, t1) in zip(marks, marks[1:])}


def run_workload(name, seed, jobs, seconds, iterations, traced) -> dict:
    """Timed jobs + check in one child, then (if ``traced``) the profiled
    job in a fresh one; folds both into named metrics."""
    common = ["--workload", name, "--seed", seed]
    if iterations is not None:
        common += ["--iterations", iterations]
    budget = ["--seconds", seconds] if seconds is not None \
        else ["--jobs", jobs] if jobs is not None else []
    timed = child("worker.py", "timed", *common, *budget)
    check = timed["check"]
    attempted, failed = timed["attempted"], timed["failed"]
    slowdown = host_slowdown(timed["calibration_s"])
    job_total = [s + w for s, w in zip(timed["setup_s"], timed["job_wall_s"])]

    end_to_end = {
        "setup_s": host_timing(timed["setup_s"], slowdown),
        "job_wall_s": host_timing(timed["job_wall_s"], slowdown),
        "peak_rss_mb": scalar(timed["peak_rss_mb"], "MB"),
        "sim_makespan_s": scalar(timed["sim"]["sim_makespan_s"], "sim_s"),
        "paper_speedup_agreement":
            scalar(1.0 - check["paper_speedup_rel_err"], "ratio"),
    }
    result = {"end_to_end": end_to_end, "check": check, "sim": timed["sim"],
              "host_slowdown": slowdown}

    if traced:
        profile = child("worker.py", "profile", *common)
        attempted += 1
        if profile["sim"] != timed["sim"]:
            failed += 1
        sim, steps = profile["sim"], profile["steps"]
        phases = [phase_durations(marks) for marks in timed["marks"]]
        raw_total = host_timing(job_total)["raw_q1"]
        total = raw_total / slowdown
        probes_hit = sim["core.cache_hits"] + sim["core.cache_misses"]
        layer = {
            "common.simclock.steps": scalar(steps, "count"),
            "common.simclock.events_per_s": scalar(steps / total, "1/s"),
            "common.simclock.wall_ns_per_event":
                scalar(total / steps * 1e9, "ns"),
            "core.cache_hit_ratio": scalar(
                sim["core.cache_hits"] / probes_hit if probes_hit else 0.0,
                "ratio"),
            "trace_overhead_ratio":
                scalar(profile["wall_s"] / raw_total, "ratio"),
            "paper_speedup_rel_err":
                scalar(check["paper_speedup_rel_err"], "ratio"),
            "failed_share": scalar(failed / attempted, "ratio"),
        }
        for key, unit in COUNT_UNITS.items():
            layer[key] = scalar(sim[key], unit)
        for bucket, seconds_ in profile["self_s"].items():
            layer[f"self_s.{bucket}"] = scalar(seconds_, "s")
        for phase in PHASES:
            layer[f"phase.{phase}_s"] = host_timing(
                [p.get(phase, 0.0) for p in phases], slowdown)
        result["per_layer"] = layer
        result["profile"] = {k: profile[k] for k in
                             ("wall_s", "self_s", "calls", "steps")}
        write_wall_trace(name, seed, timed["marks"], profile["marks"],
                         result["profile"])

    result.update(correct=bool(check["ok"]) and failed == 0,
                  attempted=attempted, failed=failed,
                  failed_share=scalar(failed / attempted, "ratio"))
    return result


def write_wall_trace(name, seed, timed_marks, profiled_marks, folded) -> None:
    """Chrome trace on the WALL clock: one ``job`` span per job with its
    phases as children (tid 1: timed jobs, tid 2: the profiled job), the
    folded profile under ``otherData``.  Open in https://ui.perfetto.dev."""
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
               "args": {"name": f"benchmark {name}"}}]
    lanes = ((1, "timed jobs", timed_marks),
             (2, "profiled job (cProfile)", [profiled_marks]))
    for tid, label, jobs in lanes:
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": tid, "args": {"name": label}})
        origin = jobs[0][0][1]
        for job_id, marks in enumerate(jobs):
            def span(span_name, t0, t1, **args):
                events.append({"name": span_name, "cat": "wall", "ph": "X",
                               "pid": 1, "tid": tid,
                               "ts": (t0 - origin) * 1e6,
                               "dur": (t1 - t0) * 1e6,
                               "args": {"job": job_id, **args}})
            span("job", marks[0][1], marks[-1][1])
            for (_, t0), (phase, t1) in zip(marks, marks[1:]):
                span(phase, t0, t1, parent="job")
    doc = {"traceEvents": events, "displayTimeUnit": "ms",
           "otherData": {"clock": "wall", "workload": name, "seed": seed,
                         **folded}}
    (OUT / f"{name}.trace.json").write_text(json.dumps(doc) + "\n")


def run_set(names, seed, quick, seconds, trace) -> dict:
    """Every selected workload once, children strictly one after another."""
    want_layers = trace != 0
    workloads = {}
    for name in names:
        workloads[name] = run_workload(
            name, seed, jobs=1 if quick else None,
            seconds=seconds / 2 if seconds and trace == 1 else seconds,
            iterations=2 if quick else None, traced=want_layers)
    probes = child("probes.py", "--scale", 0.05 if quick else 1.0) \
        if want_layers else {}
    return {"workloads": workloads, "probes": probes}


def compare_sets(sets, spec):
    """Host-clock metrics must agree within their bound, everything
    simulated exactly.  Returns the disagreements and, per metric, the
    spread observed between the sets next to the bound it is held to."""
    problems, observed = [], {}
    for name in sets[0]["workloads"]:
        runs = [s["workloads"][name] for s in sets]
        for metric in spec["end_to_end"]:
            values = [r["end_to_end"][metric["name"]]["value"] for r in runs]
            spread = (max(values) - min(values)) / abs(min(values))
            bound = metric["bound"] if metric["name"] in HOST_CLOCK else 0.0
            observed[f"{name}/{metric['name']}"] = {
                "spread": spread, "bound": bound}
            if spread > bound:
                problems.append(f"{name}: {metric['name']} differs between "
                                f"sets by {spread:.2%}: {values}")
        for key in ("sim", "check", "failed", "correct"):
            if any(r[key] != runs[0][key] for r in runs):
                problems.append(f"{name}: {key} differs between sets")
        steps = {r.get("profile", {}).get("steps") for r in runs}
        if len(steps) > 1:
            problems.append(f"{name}: simclock steps differ: {steps}")
    return problems, observed


def print_table(doc, spec, stream=sys.stderr) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for k, one in enumerate(doc["sets"]):
        for name, res in one["workloads"].items():
            check = res["check"]
            print(f"\n== set {k} · {name} · seed {doc['seed']} · "
                  f"{res['attempted']} jobs, {res['failed']} failed, "
                  f"correct={res['correct']} ==", file=stream)
            print(f"   host ran {res['host_slowdown']:.3f}x slower than the "
                  f"reference speed; timings below are corrected for it",
                  file=stream)
            print(f"   simulated speed-up {check['speedup']:.3f}x vs paper "
                  f"{check['paper_speedup']}x (rel. error "
                  f"{check['paper_speedup_rel_err']:.4f})", file=stream)
            for family in ("end_to_end", "per_layer"):
                for metric, m in sorted(res.get(family, {}).items()):
                    extra = ""
                    if "samples" in m:
                        extra = (f"  n={m['samples']} raw q1/med/q3="
                                 f"{m['raw_q1']:.4g}/{m['raw_median']:.4g}/"
                                 f"{m['raw_q3']:.4g}")
                    if metric in bounds:
                        extra += f"  bound={bounds[metric]:.0%}"
                    print(f"   {metric:44s} {m['value']:>16.6g} "
                          f"{m['unit']:6s}{extra}", file=stream)
        for metric, m in sorted(one["probes"].items()):
            print(f"   {metric:44s} {m['value']:>16.6g} {m['unit']:6s}"
                  f"  n={m['samples']} ops={m['ops']:g}", file=stream)


def git_head() -> str:
    if not (REPO / ".git").exists():
        return "unknown"       # an exported checkout; never ask a parent repo
    try:
        return subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"], check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=10).stdout.decode().strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file() \
            or not (REPO / "BENCHMARK.json").is_file():
        print(f"benchmark needs the repository around it: no {SRC}/repro "
              f"or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    sys.path.insert(0, str(SRC))
    from repro.common.rng import DEFAULT_SEED

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload-generator seed (default "
                             f"{DEFAULT_SEED}; held-out: {HELD_OUT_SEED})")
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat the whole run K times and require the "
                             "sets to agree")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: one 2-iteration job per workload, "
                             "1/20 of each probe")
    parser.add_argument("--workload", choices=names,
                        help="driver form: run only this workload")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long instead of a fixed job "
                             "count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer only")
    args = parser.parse_args(argv)
    if args.sets < 1:
        parser.error("--sets must be at least 1")
    OUT.mkdir(exist_ok=True)

    selected = [args.workload] if args.workload else names
    sets = [run_set(selected, args.seed, args.quick, args.seconds, args.trace)
            for _ in range(args.sets)]
    doc = {"seed": args.seed, "held_out_seed": HELD_OUT_SEED,
           "commit": git_head(), "quick": args.quick, "sets": sets}
    problems, doc["between_sets"] = compare_sets(sets, spec)
    print_table(doc, spec)
    for problem in problems:
        print(f"DISAGREE: {problem}", file=sys.stderr)

    ok = not problems and all(
        w["correct"] for s in sets for w in s["workloads"].values())
    if args.workload and args.trace is not None:
        res = sets[-1]["workloads"][args.workload]
        measured = dict(res["per_layer"], **sets[-1]["probes"]) \
            if args.trace else res["end_to_end"]
        listed = spec["per_layer" if args.trace else "end_to_end"]
        print(json.dumps({
            "correct": ok, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {m["name"]: {"value": measured[m["name"]]["value"],
                                    "unit": m["unit"]} for m in listed}}))
    else:
        print(json.dumps(doc, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
