"""docs/OBSERVABILITY.md §Metric catalog is FACTS, written out.

One table row per fact: what the tracer draws, what the registry and the
monitor derive (kind, name, labels).  The last column — the meaning — is
prose; the other four are compared cell by cell, both ways.
"""

from pathlib import Path

from repro.obs.facts import DUR, FACTS, Derive, Fact

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"


def _derived(d: Derive) -> str:
    labels = ",".join(label for label, _src, _mapping in d.labels)
    what = f"{d.kind} `{d.name}{{{labels}}}`" if labels \
        else f"{d.kind} `{d.name}`"
    notes = [f"= {'duration' if d.value == DUR else d.value}"
             if isinstance(d.value, str) or d.value == 0 else "",
             "at start" if d.on_open else "",
             f"unless {'/'.join(d.unless)}" if d.unless else "",
             "if non-zero" if d.skip_zero else ""]
    notes = ", ".join(n for n in notes if n)
    return f"{what} ({notes})" if notes else what


def catalog_cells(key: str, row: Fact):
    """(fact, trace, registry, monitor) cells of one catalog row."""
    if row.cat is None:
        trace = "—"
    else:
        kind = "span" if row.ph == "X" else "instant"
        name = f" `{row.name}`" if row.name else ""
        trace = f"`{row.cat}` {kind}{name}"
    sinks = {sink: "; ".join(_derived(d) for d in row.derive
                             if d.sink == sink) or "—"
             for sink in ("registry", "monitor")}
    return f"`{key}`", trace, sinks["registry"], sinks["monitor"]


def documented_rows():
    lines = DOC.read_text().splitlines()
    start = lines.index("| fact | trace | registry | monitor | meaning |")
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = tuple(c.strip() for c in line.strip("|").split(" | "))
        rows[cells[0]] = cells[:4]
    return rows


def test_catalog_and_table_agree_row_by_row():
    documented = documented_rows()
    expected = {f"`{key}`": catalog_cells(key, row)
                for key, row in FACTS.items()}
    assert set(documented) == set(expected)
    for fact, cells in expected.items():
        assert documented[fact] == cells, fact


def test_every_documented_row_says_what_it_means():
    for line in DOC.read_text().splitlines():
        if line.startswith("| `") and line.count(" | ") == 4:
            assert line.rstrip("|").split(" | ")[-1].strip(), line
