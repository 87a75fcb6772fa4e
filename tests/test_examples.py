"""Smoke tests: every shipped example must run to completion."""

import runpy
import sys
import tempfile
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, capsys, monkeypatch, tmp_path):
    # An example that writes into a fresh temporary directory (and prints
    # its path for the user) writes it under this test's own.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script.name} printed nothing"


def test_all_expected_examples_present():
    names = {p.stem for p in EXAMPLES}
    assert {"quickstart", "kmeans_clustering", "spmv_iterative",
            "wordcount_pipeline", "multi_tenant"} <= names
