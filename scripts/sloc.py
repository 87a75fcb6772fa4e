#!/usr/bin/env python3
"""Count code lines: non-blank, non-comment, non-docstring.

The number every CHANGES.md entry since PR 16 reports (house rule iv).

    python scripts/sloc.py                  # per-package table of src/repro
    python scripts/sloc.py some/other/tree/src/repro     # ... of that tree
    python scripts/sloc.py src/repro/core/gdst.py src/repro/core/gwork.py

A line counts when it carries at least one token that is not a comment and
does not belong to a docstring (the leading string statement of a module,
class or function).  Directories are walked for ``*.py``; one directory is
printed as a table of its children, several paths one per line, then the
total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Dict, Iterable, Set

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "repro"

_NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Code lines of one Python source text."""
    lines: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NO_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count(path: Path) -> int:
    """Code lines of a file, or of every ``*.py`` under a directory."""
    files: Iterable[Path] = (sorted(path.rglob("*.py")) if path.is_dir()
                             else [path])
    return sum(code_lines(f.read_text()) for f in files)


def package_table(root: Path) -> Dict[str, int]:
    """Code lines per immediate child of ``root`` (packages and modules)."""
    return {child.name: count(child) for child in sorted(root.iterdir())
            if child.suffix == ".py"
            or (child.is_dir() and any(child.rglob("*.py")))}


def main(argv: list) -> int:
    paths = [Path(arg) for arg in argv] or [DEFAULT]
    missing = [path for path in paths if not path.exists()]
    if missing:
        print(f"sloc.py: no such file or directory: {missing[0]}\n{__doc__}",
              file=sys.stderr)
        return 2
    if len(paths) == 1 and paths[0].is_dir():
        table = package_table(paths[0])
        for name, n in table.items():
            print(f"{n:7d}  {paths[0] / name}")
        print(f"{sum(table.values()):7d}  {paths[0]}")
        return 0
    counts = [count(path) for path in paths]
    for n, path in zip(counts, paths):
        print(f"{n:7d}  {path}")
    if len(paths) > 1:
        print(f"{sum(counts):7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
