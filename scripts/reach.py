#!/usr/bin/env python3
"""Reach census: the functions under src/repro that no entry point calls.

    python scripts/reach.py            # run the entry points, report
    python scripts/reach.py some/tree  # ... of another checkout of this repo

The entry points are what a user or a benchmark runs, never the tests:
ci.sh's smokes (``scripts/ci.sh --smokes``), the whole paper bench suite
(``pytest benchmarks --ignore=benchmarks/perf``), ``benchmarks/perf/run.py
--quick`` and every script in ``examples/``.  Each runs in a child process
whose ``PYTHONPATH`` starts with ``scripts/reach_hook``, so its
``sitecustomize`` records every Python call (a ``sys.setprofile`` hook);
nothing under src/ knows about it.

Every ``def`` under src/repro that no child called is printed, per file,
with its physical lines.  ``scripts/reach_allow.txt`` names the ones kept
anyway, one ``path::qualname  reason`` per line (a dunder, an abstract
method, a query API the tests read, or the ROADMAP item that owns it).
Exit status 1 when an unreached function is not on that list, or when the
list names a function that is reached or does not exist; 2 when an entry
point fails.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, NamedTuple, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
HOOK = Path(__file__).resolve().parent / "reach_hook"
ALLOW = Path(__file__).resolve().parent / "reach_allow.txt"


class Def(NamedTuple):
    path: str        #: relative to the tree, e.g. src/repro/flink/plan.py
    qualname: str    #: Class.method, outer.inner
    first: int       #: first line (the first decorator's, as a code object)
    lines: int       #: physical lines, decorators included


def defs(tree: Path) -> List[Def]:
    """Every ``def`` under ``tree/src/repro``."""
    found: List[Def] = []
    for path in sorted((tree / "src" / "repro").rglob("*.py")):
        rel = str(path.relative_to(tree))

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    name = prefix + child.name
                    found.append(Def(rel, name, first,
                                     child.end_lineno - first + 1))
                    walk(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
    return found


def entry_points(tree: Path) -> List[Tuple[str, List[str], bool]]:
    """``(label, argv, in_scratch)``: a child run from the tree's root, or
    from the scratch directory for the examples (they write into the
    working directory)."""
    python = sys.executable
    points = [
        ("ci.sh smokes", ["bash", "scripts/ci.sh", "--smokes"], False),
        # pytest-benchmark switches any profile hook off while it times a
        # bench; disabled, it runs each bench once, untimed, hook on.
        ("bench suite", [python, "-m", "pytest", "-q", "-p",
                         "no:cacheprovider", "--benchmark-disable",
                         "benchmarks", "--ignore=benchmarks/perf"], False),
        ("perf --quick", [python, "benchmarks/perf/run.py", "--quick"],
         False),
    ]
    points += [(f"example {path.stem}", [python, str(path)], True)
               for path in sorted((tree / "examples").glob("*.py"))]
    return points


def record(tree: Path, calls: Path) -> None:
    """Run every entry point under the hook, recording into ``calls``."""
    scratch = Path(tempfile.mkdtemp(prefix="reach-"))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(HOOK), str(tree / "src"), os.environ.get(
                       "PYTHONPATH")])),
               REPRO_REACH_DIR=str(calls),
               REPRO_REACH_ROOT=str(tree / "src" / "repro") + os.sep,
               TMPDIR=str(scratch))
    try:
        for label, argv, in_scratch in entry_points(tree):
            start = time.perf_counter()
            log = scratch / "child.log"
            with log.open("w") as out:
                done = subprocess.run(
                    argv, cwd=scratch if in_scratch else tree, env=env,
                    stdout=out, stderr=subprocess.STDOUT)
            print(f"  {label}: {time.perf_counter() - start:.1f} s",
                  flush=True)
            if done.returncode:
                print(log.read_text()[-3000:], file=sys.stderr)
                print(f"reach: entry point {label!r} failed "
                      f"(exit {done.returncode})", file=sys.stderr)
                sys.exit(2)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def reached(tree: Path, calls: Path) -> Set[Tuple[str, int, str]]:
    """``(path relative to tree, first line, name)`` of every call."""
    found = set()
    for table in calls.glob("*.txt"):
        for row in table.read_text().splitlines():
            path, first, name = row.split("\t")
            found.add((str(Path(path).relative_to(tree)), int(first), name))
    return found


def allowed() -> Dict[Tuple[str, str], str]:
    """``(path, qualname) -> reason`` from the allow-list."""
    entries = {}
    for number, line in enumerate(ALLOW.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        path, sep, qualname = name.partition("::")
        if not sep or not reason.strip():
            sys.exit(f"{ALLOW}:{number}: want 'path::qualname  reason'")
        entries[(path, qualname)] = reason.strip()
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("tree", nargs="?", type=Path, default=REPO)
    tree = parser.parse_args(argv).tree.resolve()
    calls = Path(tempfile.mkdtemp(prefix="reach-calls-"))
    try:
        print(f"== reach census: entry points of {tree} ==", flush=True)
        record(tree, calls)
        hit = reached(tree, calls)
    finally:
        shutil.rmtree(calls, ignore_errors=True)

    every = defs(tree)
    allow = allowed()
    unreached = [d for d in every
                 if (d.path, d.first, d.qualname.rsplit(".", 1)[-1])
                 not in hit]
    by_file: Dict[str, List[Def]] = defaultdict(list)
    for d in unreached:
        by_file[d.path].append(d)
    unexplained = 0
    for path in sorted(by_file):
        print(path)
        for d in by_file[path]:
            reason = allow.get((d.path, d.qualname))
            unexplained += reason is None
            print(f"  {d.qualname} (l. {d.first}, {d.lines} lines)"
                  + (f"  [kept: {reason}]" if reason else "  UNEXPLAINED"))
    names = {(d.path, d.qualname) for d in every}
    gone = {(d.path, d.qualname) for d in unreached}
    stale = sorted(key for key in allow if key not in gone)
    for path, qualname in stale:
        what = "is reached" if (path, qualname) in names else "does not exist"
        print(f"stale allow-list entry: {path}::{qualname} {what}")

    packages: Dict[str, int] = defaultdict(int)
    for d in unreached:
        parts = Path(d.path).parts
        packages[parts[2] if len(parts) > 3 else parts[2][:-3]] += d.lines
    print(f"unreached: {len(unreached)} of {len(every)} functions "
          f"({sum(d.lines for d in unreached)} physical lines: "
          + ", ".join(f"{pkg} {n}" for pkg, n in
                      sorted(packages.items(), key=lambda kv: -kv[1]))
          + f"); {len(unreached) - unexplained} on the allow-list, "
          f"{unexplained} unexplained, {len(stale)} stale entries")
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
