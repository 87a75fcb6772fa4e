"""Smoke test of the benchmark harness: one ``run.py --quick`` invocation.

Not part of tier-1 (``testpaths = tests``); run it with
``python -m pytest benchmarks/perf/test_quick.py``.  It checks the plumbing —
every workload and metric that BENCHMARK.json lists comes out, once, with a
unit and a finite value — not the numbers, which ``--quick`` shrinks.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def quick():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"],
                          stdout=subprocess.PIPE, check=True, timeout=180)
    return spec, json.loads(done.stdout)


def test_document_echoes_seed_and_commit(quick):
    _, doc = quick
    assert isinstance(doc["seed"], int) and doc["commit"]
    assert doc["quick"] is True and len(doc["sets"]) == 1


def test_every_listed_name_is_emitted_exactly_once(quick):
    spec, doc = quick
    one = doc["sets"][0]
    assert list(one["workloads"]) == [w["name"] for w in spec["workloads"]]
    listed = spec["end_to_end"] + spec["per_layer"]
    assert len({m["name"] for m in listed}) == len(listed)
    for name, res in one["workloads"].items():
        assert res["correct"] and res["failed"] == 0, name
        families = (res["end_to_end"], res["per_layer"], one["probes"])
        for metric in listed:
            assert NAME.fullmatch(metric["name"]), metric["name"]
            hits = [f[metric["name"]] for f in families
                    if metric["name"] in f]
            assert len(hits) == 1, (name, metric["name"])
            assert hits[0]["unit"] == metric["unit"], (name, metric["name"])
            assert math.isfinite(hits[0]["value"]), (name, metric["name"])
        emitted = set().union(*families)
        assert emitted == {m["name"] for m in listed}, name


def test_self_times_account_for_the_profiled_job(quick):
    _, doc = quick
    for name, res in doc["sets"][0]["workloads"].items():
        profile = res["profile"]
        assert sum(profile["self_s"].values()) == pytest.approx(
            profile["wall_s"], rel=0.05), name


def test_shuffle_rows_does_no_gpu_work(quick):
    _, doc = quick
    profile = doc["sets"][0]["workloads"]["shuffle_rows"]["profile"]
    for bucket in ("core", "gpu"):
        assert profile["self_s"][bucket] < 0.01 * profile["wall_s"], bucket


def test_wall_trace_is_written(quick):
    spec, _ = quick
    for workload in spec["workloads"]:
        doc = json.loads(
            (HERE / "out" / f"{workload['name']}.trace.json").read_text())
        assert doc["otherData"]["clock"] == "wall"
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"job", "cluster_build", "input_gen", "hdfs_load",
                "run"} <= names
