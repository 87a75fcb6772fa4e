#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark's one-workload run.

    python scripts/pairs.py PARENT CHANGE --workload W [--seed S] [--pairs N]

``PARENT`` and ``CHANGE`` are two checkouts of this repository.  A pair runs

    python3 benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0

once in each checkout (its own ``run.py``, the checkout as working
directory; ``T`` is ``BENCHMARK.json``'s ``run_seconds``), one child at a
time; which side runs first alternates from pair to pair.  Printed: every run, each side's median and quartiles of every
end-to-end metric of ``BENCHMARK.json`` with the median change against the
metric's bound, and each metric's verdict under ROADMAP rule (i): a
gain is claimed only when at least ten pairs ran, the change wins at least
nine tenths of them (ties count for neither) and the medians differ by more
than the parent's own spread, the distance between its quartiles.
A run that is not ``correct`` or fails an operation, and a pair whose
simulated metrics differ, are named.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
#: Simulated: exact at a fixed seed, so the two sides of a pair must agree.
SIMULATED = ("sim_makespan_s", "paper_speedup_agreement")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One one-workload run in ``tree``: its last stdout line, parsed."""
    out = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{tree}: no output (exit {out.returncode})\n"
                         f"{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: List[float]):
    """``(q1, median, q3)`` as ``run.py`` takes them."""
    return (tuple(statistics.quantiles(values, n=4)) if len(values) > 1
            else (values[0],) * 3)


def verdict(parent: List[float], change: List[float], better: str) -> str:
    """Rule (i) on one metric: wins, median gap against the parent's IQR."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    gap = sign * (pm - statistics.median(change))
    enough = len(parent) >= 10
    claimed = enough and wins >= 0.9 * len(parent) and gap > p3 - p1
    return (f"wins {wins}/{len(parent)} (losses {losses}), median gap "
            f"{gap:+.4g} vs parent IQR {p3 - p1:.4g}: "
            + ("gain CLAIMED" if claimed else
               "no claim" + ("" if enough else " (fewer than 10 pairs)")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20160816)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = {"P": args.parent, "C": args.change}
    runs: Dict[str, List[dict]] = {"P": [], "C": []}
    problems = []
    seconds = SPEC["run_seconds"]
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{seconds:g} s", flush=True)
    for i in range(args.pairs):
        order = "PC" if i % 2 == 0 else "CP"
        for side in order:
            res = run_once(sides[side], args.workload, args.seed, seconds)
            runs[side].append(res)
            values = {k: v["value"] for k, v in res["metrics"].items()}
            print(f"pair {i + 1:2d} {side}  " + "  ".join(
                f"{k}={values[k]:.6g}" for k in METRICS)
                + f"  failed={res['failed']}/{res['attempted']}", flush=True)
            if not res["correct"] or res["failed"]:
                problems.append(f"pair {i + 1} {side}: correct="
                                f"{res['correct']} failed={res['failed']}")
        for name in SIMULATED:
            p, c = (runs[s][-1]["metrics"][name]["value"] for s in "PC")
            if p != c:
                problems.append(f"pair {i + 1}: {name} {p!r} != {c!r}")

    print("\nmetric                    parent q1 / median / q3"
          "          change q1 / median / q3      median change (bound)")
    for name, meta in METRICS.items():
        p, c = ([r["metrics"][name]["value"] for r in runs[s]] for s in "PC")
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        rel = (cm - pm) / pm if pm else 0.0
        print(f"{name:24s} {p1:.6g} / {pm:.6g} / {p3:.6g}   "
              f"{c1:.6g} / {cm:.6g} / {c3:.6g}   {rel:+.2%} "
              f"({meta['better']} is better, bound {meta['bound']:.0%})")
        print(f"{'':24s} rule (i): {verdict(p, c, meta['better'])}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
