"""Validate observability JSON artefacts; cross-check a trace with its metrics.

Usage::

    python -m repro.obs.validate file.json [more.json ...]
    python -m repro.obs.validate --cross trace.json metrics.json

Each file is dispatched on its ``schema`` tag through
:data:`repro.obs.schema.SCHEMAS` (an untagged document is a Chrome trace).
Exit status 0 when every file validates; 1 otherwise.

``--cross`` holds the exported registry snapshot against the exported trace
of the same run.  It is generated from :data:`repro.obs.facts.FACTS`, not
written by hand: every registry derivation of a drawn fact is recomputed
from the trace events — matched to their row by category and displayed
name, labels and values read back from the args, the lane and the name —
and must equal the snapshot exactly (floats to 1e-9); every ``totals`` row
must hold as a sum.  Counters are derived from the facts they describe, so
this holds by construction: the check is the regression test of that
construction.  CI runs both forms over its smokes (``scripts/ci.sh``).
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.facts import DUR, FACTS, Fact, resolve_labels
from repro.obs.metrics import render_key
from repro.obs.schema import validate_document

_TOLERANCE = 1e-9


def _validate_file(path: str) -> Tuple[str, List[str], Any]:
    """(document kind, errors, document) for one file."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        return "unreadable", [str(exc)], None
    return (*validate_document(doc), doc)


# -- cross-check ------------------------------------------------------------------
def _name_pattern(row: Fact) -> Tuple["re.Pattern[str]", int]:
    """The regex a row's displayed names match (template fields become
    named groups) and how many literal characters pin it down."""
    parts = re.split(r"\{(\w+)\}", row.name)
    literal = sum(len(p) for p in parts[::2])
    regex = "".join(re.escape(p) if i % 2 == 0 else f"(?P<{p}>.+)"
                    for i, p in enumerate(parts))
    return re.compile(f"^{regex}$"), literal


_DRAWN = [(row, *_name_pattern(row))
          for row in FACTS.values() if row.cat is not None]


def _row_of(event: Dict[str, Any]) -> Optional[Tuple[Fact, Dict]]:
    """The FACTS row an exported event was drawn from: same category and
    phase and a matching name; the most literal name wins (``h2d`` over
    ``{kernel}``)."""
    best = None
    for row, pattern, literal in _DRAWN:
        if row.cat != event.get("cat") or row.ph != event.get("ph"):
            continue
        m = pattern.match(event["name"])
        if m is not None and (best is None or literal > best[0]):
            best = (literal, row, m.groupdict())
    return None if best is None else best[1:]


def _value(source: Any, attrs: Dict[str, Any], dur: float) -> Any:
    """A derivation's value read back from an exported event: a hidden
    value attr is the span's own duration."""
    if not isinstance(source, str):
        return source
    return dur if source == DUR else attrs.get(source, dur)


def _flat(value: Any) -> Tuple[float, ...]:
    """A snapshot value as a tuple: a histogram is (count, sum)."""
    if isinstance(value, dict):
        return value.get("count", 0), value.get("sum", 0.0)
    return (value,)


def cross_check(trace: Dict[str, Any], metrics: Dict[str, Any]) -> List[str]:
    """Errors of ``metrics`` (a registry snapshot) against ``trace``."""
    processes = {e["pid"]: e["args"]["name"] for e in trace["traceEvents"]
                 if e.get("ph") == "M" and e.get("name") == "process_name"}
    expected: Dict[str, Tuple[float, ...]] = {}
    sums: Dict[str, float] = {}
    for event in trace["traceEvents"]:
        found = _row_of(event) if event.get("ph") in ("X", "i") else None
        if found is None:
            continue
        row, named = found
        # What the emitting site passed: the args, plus the hidden attrs
        # that survive in the displayed name.
        attrs = {**named, **event["args"]}
        dur = event.get("dur", 0.0) / 1e6
        process = processes.get(event["pid"])
        for d in row.derive:
            if d.sink != "registry" or any(attrs.get(u) for u in d.unless):
                continue
            value = _value(d.value, attrs, dur)
            if not value and d.skip_zero:
                continue
            key = render_key(d.name, resolve_labels(d.labels, process, attrs))
            if d.kind == "histogram":
                count, total = expected.get(key, (0, 0.0))
                expected[key] = (count + 1, total + value)
            elif d.kind == "gauge":
                expected[key] = (value,)
            else:
                expected[key] = (expected.get(key, (0.0,))[0] + value,)
        for family, source in row.totals:
            sums[family] = sums.get(family, 0.0) + _value(source, attrs, dur)
    derived = {d.name for row, *_ in _DRAWN for d in row.derive
               if d.sink == "registry"}
    actual = {key: _flat(value) for key, value in metrics.items()
              if key.partition("{")[0] in derived}
    errors: List[str] = []
    for key in sorted(set(expected) | set(actual)):
        want, got = expected.get(key), actual.get(key)
        want = want or (0.0,) * len(got)
        got = got or (0.0,) * len(want)
        if any(abs(w - g) > _TOLERANCE for w, g in zip(want, got)):
            errors.append(f"{key}: the trace says {want}, "
                          f"the registry {got}")
    for family, want in sorted(sums.items()):
        members = [value for key, value in metrics.items()
                   if key.partition("{")[0] == family]
        if members and abs(sum(members) - want) > _TOLERANCE:
            errors.append(f"{family}: the trace's events sum to {want!r}, "
                          f"the registry family to {sum(members)!r}")
    return errors


# -- command line -------------------------------------------------------------------
def _report(arg: str, kind: str, errors: List[str], detail: str,
            out) -> bool:
    if errors:
        print(f"{arg}: INVALID ({kind})", file=out)
        for err in errors[:20]:
            print(f"  {err}", file=out)
        if len(errors) > 20:
            print(f"  ... and {len(errors) - 20} more", file=out)
    else:
        print(f"{arg}: OK [{kind}]{detail}", file=out)
    return bool(errors)


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    cross = bool(argv) and argv[0] == "--cross"
    if not argv or (cross and len(argv) != 3):
        print("usage: python -m repro.obs.validate <file.json> ...\n"
              "       python -m repro.obs.validate --cross "
              "<trace.json> <metrics.json>", file=out)
        return 2
    if cross:
        kind, errors, trace = _validate_file(argv[1])
        if not errors and kind != "chrome trace":
            errors = [f"expected a Chrome trace, found a {kind}"]
        if not errors:
            try:
                metrics = json.loads(Path(argv[2]).read_text())
                errors = cross_check(trace, metrics)
            except (OSError, ValueError) as exc:
                errors = [f"cannot load {argv[2]}: {exc}"]
        return int(_report(f"{argv[1]} x {argv[2]}", "cross-check", errors,
                           "", out))
    failed = False
    for arg in argv:
        kind, errors, doc = _validate_file(arg)
        detail = (f" ({len(doc['traceEvents'])} events)"
                  if kind == "chrome trace" and not errors else "")
        failed |= _report(arg, kind, errors, detail, out)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
