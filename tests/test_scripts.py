"""The instruments under scripts/: the code-line counter and the lint table."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _script(name):
    spec = importlib.util.spec_from_file_location(
        f"scripts_{name}", REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


lint = _script("lint")


class TestSloc:
    @pytest.mark.parametrize("argv", [["--help"], ["src/repro/no_such.py"],
                                      ["src/repro/cli.py", "nowhere"]])
    def test_a_path_that_does_not_exist_is_a_usage_error(self, argv):
        done = subprocess.run(
            [sys.executable, "scripts/sloc.py", *argv], cwd=REPO,
            capture_output=True, text=True)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert f"no such file or directory: {argv[-1]}" in done.stderr
        assert "python scripts/sloc.py" in done.stderr      # the usage

    def test_counts_code_not_comments_or_docstrings(self, tmp_path):
        source = tmp_path / "m.py"
        source.write_text('"""Doc."""\n\n# comment\nx = 1\n\n\n'
                          'def f():\n    """Doc\n    two."""\n    return x\n')
        done = subprocess.run(
            [sys.executable, "scripts/sloc.py", str(source)], cwd=REPO,
            capture_output=True, text=True)
        assert done.returncode == 0
        assert done.stdout.split()[0] == "3"


class TestLintTable:
    def test_this_repository_is_clean(self):
        assert {row.name: lint.hits(row, REPO) for row in lint.LINTS} \
            == {row.name: [] for row in lint.LINTS}

    @pytest.mark.parametrize("row", lint.LINTS, ids=lambda row: row.retired_by
                             + ":" + row.name.split(" — ")[0][:40])
    def test_every_row_trips_on_its_seeded_violation(self, row, tmp_path):
        path, line = row.seed
        target = tmp_path / path
        target.parent.mkdir(parents=True)
        target.write_text("import numpy as np\n")
        if row.exactly_once:
            # each name once is the clean state; the seed is a second copy
            target.write_text("".join(f"    def {name}(self):\n        pass\n"
                                      for name in row.exactly_once))
        assert lint.hits(row, tmp_path) == []
        with target.open("a") as out:
            out.write(line + "\n")
        tripped = lint.hits(row, tmp_path)
        assert tripped and all(path in hit for hit in tripped)
        assert any(hit.endswith(line) for hit in tripped)

    def test_a_missing_single_definition_trips_too(self, tmp_path):
        row = next(row for row in lint.LINTS if row.exactly_once)
        target = tmp_path / row.roots[0]
        target.parent.mkdir(parents=True)
        target.write_text(f"    def {row.exactly_once[0]}(self):\n")
        assert lint.hits(row, tmp_path) \
            == [f"{row.roots[0]}: no definition of {row.exactly_once[1]}"]

    def test_an_allowed_site_may_keep_the_spelling(self, tmp_path):
        row = next(row for row in lint.LINTS if row.allowed)
        line = row.seed[1]
        target = tmp_path / "src/repro/core/gmemory.py"
        target.parent.mkdir(parents=True)
        target.write_text(line + "\n")
        assert lint.hits(row, tmp_path) == []

    def test_main_reports_the_rule_and_the_pr_and_exits_1(self, tmp_path,
                                                          capsys):
        row = lint.LINTS[-1]
        target = tmp_path / row.seed[0]
        target.parent.mkdir(parents=True)
        target.write_text(row.seed[1] + "\n")
        assert lint.main([str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert f"{row.seed[0]}:1:{row.seed[1]}" in captured.out
        assert row.message in captured.err
        assert f"[retired by {row.retired_by}]" in captured.err
        assert lint.main([]) == 0
