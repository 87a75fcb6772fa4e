"""Document schemas of the observability artefacts, in one table.

Five JSON documents leave this package — Chrome traces, profile summaries,
monitor summaries, explanations, post-mortem bundles — and each is checked
on the way back in, because it then comes from outside the program.  A
check has two halves.  The *structural* half ("is an object / has this
field / is a list of objects with these fields") is spelled once:
:data:`SCHEMAS` maps a schema tag to ``{type: "dotted.path ..."}`` (a
``path[]`` key holds the fields of every item of that list) and
:func:`_structure` walks it, wording every error the same way.  The
*semantic* half — categories sum to the makespan, shares sum to 1, points
in window order, resolved not before fired, exclusive lanes never overlap
— is a small function beside the schema's row.

Every validator returns a list of human-readable errors, empty when the
document conforms.  They stay importable from the module that writes the
document (``monitor.validate_monitor_summary`` and so on).
"""

from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

MONITOR_SCHEMA = "repro.monitor.summary/v1"
SUMMARY_SCHEMA = "repro.profile.summary/v1"
EXPLAIN_SCHEMA = "repro.obs.explain/v1"
POSTMORTEM_SCHEMA = "repro.obs.postmortem/v1"

#: Attribution categories of a profile summary (the critical path and every
#: operator's shares partition time over exactly these), in coverage-priority
#: order: when fine-grained spans overlap inside one path segment, earlier
#: categories claim the time first (a kernel running during a copy is kernel
#: time).
CATEGORIES = ("kernel", "h2d", "d2h", "shuffle", "hdfs", "cpu", "sched")

#: One simulated-clock tick: float-comparison slack for span boundaries.
TICK_S = 1e-9

_NUMBER = (int, float)
_ABSENT = object()      # no such key — a JSON null is a value, and is not this

#: type -> (test, how an error names it).  In a schema a tuple type means
#: "one of these" and a trailing ``?`` lets the field be absent.
_TYPES: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    "number": (lambda v: isinstance(v, _NUMBER), "a number"),
    "positive": (lambda v: isinstance(v, _NUMBER) and v > 0,
                 "a positive number"),
    "non-negative": (lambda v: isinstance(v, _NUMBER) and v >= 0,
                     "a non-negative number"),
    "int": (lambda v: isinstance(v, int), "an integer"),
    "text": (lambda v: isinstance(v, str) and bool(v), "a non-empty string"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "present": (lambda v: True, "present"),
}
#: The fields whose complaint keeps its own words.
_SAYS = {"dur": "X event needs non-negative dur",
         "args.name": "metadata args.name must be a string",
         "traceEvents": "document must contain a traceEvents array"}


# -- the structural half --------------------------------------------------------
def _at(doc: Any, path: str) -> Any:
    for key in path.split("."):
        if not isinstance(doc, dict):
            return _ABSENT
        doc = doc.get(key, _ABSENT)
    return doc


def _rows(fields: dict) -> Tuple[tuple, tuple]:
    """A ``{type: "paths"}`` table compiled to ``(path, test, says,
    optional)`` rows, parents before their children, plus the ``(list path,
    rows)`` of every ``path[]`` key."""
    own = []
    for kind, paths in fields.items():
        if isinstance(paths, dict):
            continue
        if isinstance(kind, tuple):
            test, says, optional = kind.__contains__, "/".join(kind), False
        else:
            test, says = _TYPES[kind.rstrip("?")]
            optional = kind.endswith("?")
        own += [(path, test, says, optional) for path in paths.split()]
    each = [(key[:-2], _rows(sub)) for key, sub in fields.items()
            if isinstance(sub, dict)]
    return tuple(sorted(own, key=lambda row: row[0])), tuple(each)


def _structure(doc: dict, rows: Tuple[tuple, tuple], where: str = "",
               items: Optional[bool] = None) -> List[str]:
    """Errors of ``doc`` against compiled ``rows``: ``where + path`` is
    ``missing`` or ``must be <type>``.  A field below one that already
    failed is not reported on top of it.  ``items`` restricts the walk to
    the list-item rows (True) or to the rest (False)."""
    errors: List[str] = []
    failed: List[str] = []
    own, each = rows
    for path, test, says, optional in own if not items else ():
        if failed and any(path.startswith(p + ".") for p in failed):
            continue
        value = _at(doc, path) if "." in path else doc.get(path, _ABSENT)
        absent = value is _ABSENT
        if not (optional if absent else test(value)):
            failed.append(path)
            errors.append(where + (_SAYS.get(path) or (
                f"{path} missing" if absent else f"{path} must be {says}")))
    for path, item_rows in each if items is not False else ():
        for at, item in _items(doc, path, errors):
            errors.extend(_structure(item, item_rows, f"{at}."))
    return errors


def _items(doc: dict, path: str, errors: Optional[List[str]] = None):
    """``(where, item)`` for the object items of the list at ``path``; the
    others are complained about when ``errors`` is given."""
    value = doc.get(path)
    for i, item in enumerate(value if isinstance(value, list) else ()):
        if isinstance(item, dict):
            yield f"{path}[{i}]", item
        elif errors is not None:
            errors.append(f"{path}[{i}] must be an object")


class Schema(NamedTuple):
    kind: str                                   # what the CLI calls it
    root_error: str
    rows: Tuple[tuple, tuple]                   # _rows() of its field table
    checks: Tuple[Callable[[dict], List[str]], ...]
    #: Errors in the root's own fields end the validation: the list items
    #: and the checks assume the shape.
    gate: bool = False


def _validate(tag: Optional[str], doc: Any) -> List[str]:
    schema = SCHEMAS[tag]
    if not isinstance(doc, dict):
        return [schema.root_error]
    errors: List[str] = []
    if tag is not None and doc.get("schema") != tag:
        errors.append(f"schema must be {tag!r}, got {doc.get('schema')!r}")
    errors.extend(_structure(doc, schema.rows, items=False))
    if errors and schema.gate:
        return errors
    errors.extend(_structure(doc, schema.rows, items=True))
    for check in schema.checks:
        errors.extend(check(doc))
    return errors


# -- Chrome trace ---------------------------------------------------------------
#: Event phases the exporter emits (and the validator accepts) -> fields.
_PHASES = {
    "M": _rows({"int": "pid tid", "object?": "args", "string": "args.name",
                "text": "name", ("process_name", "thread_name"): "name"}),
    "X": _rows({"int": "pid tid", "object?": "args", "text": "name cat",
                "non-negative": "ts dur"}),
    "i": _rows({"int": "pid tid", "object?": "args", "text": "name cat",
                "non-negative": "ts", ("t", "p", "g"): "s"}),
}


def _events_by_phase(doc: dict) -> List[str]:
    errors: List[str] = []
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]: "
        if not isinstance(ev, dict):
            errors.append(f"{where}not an object")
        elif ev.get("ph") not in tuple(_PHASES):
            errors.append(f"{where}ph must be one of {sorted(_PHASES)}, "
                          f"got {ev.get('ph')!r}")
        else:
            errors.extend(_structure(ev, _PHASES[ev["ph"]], where))
    return errors


def _laned(doc: dict):
    """``(index, event)`` of the events that sit on a well-formed lane."""
    return [(i, ev) for i, ev in enumerate(doc["traceEvents"])
            if isinstance(ev, dict) and isinstance(ev.get("pid"), int)
            and isinstance(ev.get("tid"), int)]


def _pids_are_named(doc: dict) -> List[str]:
    laned = _laned(doc)
    named = {ev["pid"] for _i, ev in laned
             if ev.get("ph") == "M" and ev.get("name") == "process_name"}
    return [f"traceEvents[{i}]: pid {ev['pid']!r} has no "
            f"process_name metadata" for i, ev in laned
            if ev.get("ph") in ("X", "i") and ev["pid"] not in named]


#: Slack for float µs comparisons: spans recorded back-to-back may differ
#: by rounding noise after the seconds→µs conversion (1 ns of slack).
_OVERLAP_EPS_US = 1e-3


def _exclusive_lanes_never_overlap(doc: dict) -> List[str]:
    """No two X spans on one ``kernel`` / ``copy:*`` lane may overlap: those
    lanes model one physical engine each and the tracer records exact
    occupancy windows for them (streams/slots are virtual and may)."""
    def exclusive(name: Any) -> bool:
        return isinstance(name, str) and (name == "kernel"
                                          or name.startswith("copy:"))

    laned = _laned(doc)
    engines = {(ev["pid"], ev["tid"]) for _i, ev in laned
               if ev.get("ph") == "M" and ev.get("name") == "thread_name"
               and exclusive(_at(ev, "args.name"))}
    lanes: Dict[Any, List[Any]] = {}
    for i, ev in laned:
        key = (ev["pid"], ev["tid"])
        ts, dur = ev.get("ts"), ev.get("dur")
        if ev.get("ph") == "X" and key in engines \
                and isinstance(ts, _NUMBER) and isinstance(dur, _NUMBER):
            lanes.setdefault(key, []).append((float(ts), float(ts + dur), i))
    errors: List[str] = []
    for key in sorted(lanes):
        spans = sorted(lanes[key])
        for (_ts0, end0, i0), (ts1, _end1, i1) in zip(spans, spans[1:]):
            if ts1 < end0 - _OVERLAP_EPS_US:
                errors.append(
                    f"traceEvents[{i1}]: overlaps traceEvents[{i0}] on "
                    f"exclusive lane pid={key[0]} tid={key[1]} "
                    f"({ts1:.3f} < {end0:.3f})")
    return errors


# -- profile summary --------------------------------------------------------------
def _categories_sum_to_makespan(doc: dict) -> List[str]:
    cats, makespan = _at(doc, "critical_path.categories"), doc.get(
        "makespan_s")
    if not (isinstance(cats, dict) and isinstance(makespan, _NUMBER)
            and isinstance(_at(doc, "critical_path.segments"), list)):
        return []
    total = sum(v for v in cats.values() if isinstance(v, _NUMBER))
    if abs(total - makespan) > max(1e-6 * max(abs(makespan), 1.0),
                                   10 * TICK_S):
        return [f"critical-path categories sum {total!r} != "
                f"makespan {makespan!r}"]
    return []


def _operator_shares_sum_to_one(doc: dict) -> List[str]:
    errors: List[str] = []
    operators = doc.get("operators")
    for op, entry in operators.items() if isinstance(operators, dict) else ():
        if not isinstance(entry, dict) or \
                not str(entry.get("class", "")).endswith("_bound"):
            errors.append(f"operators[{op!r}].class must be *_bound")
            continue
        shares = entry.get("shares")
        numeric = isinstance(shares, dict) and all(
            isinstance(v, _NUMBER) for v in shares.values())
        if not numeric or abs(sum(shares.values()) - 1.0) > 1e-6:
            errors.append(f"operators[{op!r}].shares must be numbers "
                          f"summing to 1, got {shares!r}")
    return errors


# -- monitor summary --------------------------------------------------------------
def _points_in_window_order(doc: dict) -> List[str]:
    errors: List[str] = []
    for where, series in _items(doc, "series"):
        last_idx = None
        for p in series["points"] if isinstance(
                series.get("points"), list) else ():
            if (not isinstance(p, list) or len(p) != 2
                    or not isinstance(p[0], int)):
                errors.append(f"{where}: malformed point {p!r}")
                break
            if last_idx is not None and p[0] < last_idx:
                errors.append(f"{where}: points out of order at {p[0]}")
                break
            last_idx = p[0]
    return errors


def _resolved_not_before_fired(doc: dict) -> List[str]:
    errors: List[str] = []
    for where, a in _items(doc, "alerts"):
        resolved = a.get("resolved_at_s")
        if resolved is not None and not isinstance(resolved, _NUMBER):
            errors.append(f"{where}.resolved_at_s must be a number or null")
        elif resolved is not None and isinstance(
                a.get("fired_at_s"), _NUMBER) and resolved < a["fired_at_s"]:
            errors.append(f"{where}: resolved before fired")
    return errors


def _bad_within_events(doc: dict) -> List[str]:
    return [f"{where}: bad exceeds events"
            for where, s in _items(doc, "slos")
            if isinstance(s.get("bad", 0), _NUMBER)
            and isinstance(s.get("events", 0), _NUMBER)
            and s.get("bad", 0) > s.get("events", 0)]


def _health_scores_in_range(doc: dict) -> List[str]:
    health = doc["health"]
    flat = [health.get("cluster", 100.0)]
    for group in ("workers", "devices"):
        flat += list(health.get(group, {}).values())
    for v in flat:
        if not isinstance(v, _NUMBER) or not 0 <= v <= 100:
            return [f"health score out of range: {v!r}"]
    return []


# -- explanation --------------------------------------------------------------------
def _causes_ranked_by_magnitude(doc: dict) -> List[str]:
    errors: List[str] = []
    prev_mag = math.inf
    for rank, (where, cause) in enumerate(_items(doc, "causes"), start=1):
        if cause.get("rank") != rank:
            errors.append(f"{where}.rank must be {rank}")
        d = cause.get("delta_s")
        if isinstance(d, _NUMBER):
            if abs(d) > prev_mag + 1e-12:
                errors.append(f"{where} not sorted by |delta_s|")
            prev_mag = abs(d)
    return errors


def _deltas_add_up(doc: dict) -> List[str]:
    deltas = [c.get("delta_s") for _where, c in _items(doc, "causes")]
    totals = [doc.get(f) for f in ("attributed_delta_s", "residual_s",
                                   "makespan_delta_s")]
    if not all(isinstance(v, _NUMBER) for v in deltas + totals):
        return []
    attributed, residual, makespan_delta = totals
    errors: List[str] = []
    if abs(sum(deltas) - attributed) > 1e-9:
        errors.append("attributed_delta_s != sum of cause deltas")
    if abs(attributed + residual - makespan_delta) > 1e-9:
        errors.append("attributed + residual != makespan delta")
    return errors


# -- post-mortem bundle -----------------------------------------------------------
def _windows_in_order(doc: dict) -> List[str]:
    errors = [f"{where}.value must be a number or an object"
              for where, w in _items(doc, "metric_windows")
              if not isinstance(w.get("value", 0), (*_NUMBER, dict))]
    last = None
    for where, w in _items(doc, "metric_windows"):
        if isinstance(w.get("idx"), int):
            if last is not None and w["idx"] < last:
                return errors + [f"{where} out of window order"]
            last = w["idx"]
    return errors


#: An alert row, in a monitor summary and in a post-mortem bundle.
_ALERT_ROWS = {"present": "rule series", "number": "fired_at_s",
               ("warning", "critical"): "severity"}

SCHEMAS: Dict[Optional[str], Schema] = {
    None: Schema(
        "chrome trace", "document root must be an object",
        _rows({"list": "traceEvents"}),
        (_events_by_phase, _pids_are_named, _exclusive_lanes_never_overlap),
        gate=True),
    SUMMARY_SCHEMA: Schema(
        "profile summary", "summary root must be an object",
        _rows({"number": "makespan_s " + " ".join(
            f"critical_path.categories.{cat}" for cat in CATEGORIES),
         "object": "critical_path critical_path.categories operators "
                   "devices workers totals",
         "list": "critical_path.segments"}),
        (_categories_sum_to_makespan, _operator_shares_sum_to_one)),
    MONITOR_SCHEMA: Schema(
        "monitor summary", "summary must be a JSON object",
        _rows({"positive": "window_s", "list": "series alerts slos",
         "object": "health", "object?": "health.workers health.devices",
         "series[]": {"text": "name", "list": "points",
                      ("counter", "gauge", "histogram"): "kind"},
         "alerts[]": _ALERT_ROWS,
         "slos[]": {("latency", "availability"): "kind",
                    "non-negative": "burn_rate"}}),
        (_points_in_window_order, _resolved_not_before_fired,
         _bad_within_events, _health_scores_in_range), gate=True),
    EXPLAIN_SCHEMA: Schema(
        "explanation", "explanation must be a JSON object",
        _rows({"number": "makespan_delta_s noise_floor_s attributed_delta_s "
                   "residual_s baseline.makespan_s current.makespan_s",
         "list": "causes operators_added operators_removed",
         "causes[]": {"number": "delta_s", "list?": "evidence",
                      "string": "label", "text": "key"}}),
        (_causes_ranked_by_magnitude, _deltas_add_up)),
    POSTMORTEM_SCHEMA: Schema(
        "post-mortem bundle", "bundle must be a JSON object",
        _rows({"text": "reason", "number": "triggered_at_s",
         "list": "trace_slice metric_windows alerts",
         "object": "detail health",
         "object?": "health.workers health.devices",
         "trace_slice[]": {"number": "ts dur"},
         "metric_windows[]": {"int": "idx", "text": "series",
                              "present": "value"},
         "alerts[]": _ALERT_ROWS}),
        (_windows_in_order, _resolved_not_before_fired,
         _health_scores_in_range), gate=True),
}


def validate_document(doc: Any) -> Tuple[str, List[str]]:
    """(document kind, errors), dispatched on the ``schema`` tag; a document
    with no known tag is taken for a Chrome trace."""
    tag = doc.get("schema") if isinstance(doc, dict) else None
    if not isinstance(tag, str) or tag not in SCHEMAS:
        tag = None
    return SCHEMAS[tag].kind, _validate(tag, doc)


def validate_chrome_trace_file(path) -> List[str]:
    """Validate a trace file on disk; returns the error list."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot load {path}: {exc}"]
    return validate_chrome_trace(doc)


#: One validator per document: ``validate_x(doc) -> [errors]``, [] when valid.
validate_chrome_trace = partial(_validate, None)
validate_profile_summary = partial(_validate, SUMMARY_SCHEMA)
validate_monitor_summary = partial(_validate, MONITOR_SCHEMA)
validate_explanation = partial(_validate, EXPLAIN_SCHEMA)
validate_postmortem_bundle = partial(_validate, POSTMORTEM_SCHEMA)
