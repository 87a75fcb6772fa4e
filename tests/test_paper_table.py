"""The paper's claims (benchmarks/paper.py) against the document and the engine.

* EXPERIMENTS.md's headline table and Table 2 are that table written out:
  every *Paper* cell is a ``CLAIMS`` row, every *Measured* cell the last line
  of ``BENCH.jsonl`` — compared cell by cell (the ``test_facts_doc.py``
  pattern), and one digit changed in any of them is caught.
* A slice of the table runs on every test run: the six headline factors at
  the mid Table-1 size (the bench's own sample size and iteration count, so
  the numbers are the recorded ones), Table 2's sixteen cells and Fig. 8a's
  eviction counts, each held to its row's tolerance.
"""

import dataclasses
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))    # as benchmarks/conftest.py does

from harness import (  # noqa: E402
    gc_policy_counts,
    h2d_bandwidth,
    mid_size,
    paper_cluster_config,
    sweep_claim,
)
from paper import CLAIMS, RECORD, SWEEPS, TABLE2_BYTES, approx  # noqa: E402
from repro.flink import FlinkConfig  # noqa: E402
from repro.workloads import KMeansWorkload, table1_sizes  # noqa: E402

DOC = REPO / "EXPERIMENTS.md"
HEADLINE = "| Claim | Benchmark | Paper | Measured (mid size) | Bench |"
TABLE2 = ("| Bytes | GFlink paper | GFlink measured | Native paper "
          "| Native measured |")


def recorded_runs():
    return [json.loads(line) for line in RECORD.read_text().splitlines()]


def expected_cells(results):
    """``{(table header, row key, column): text}`` for every checked cell,
    from the claim table and one recorded run's results."""
    cells = {}
    for claim in SWEEPS:
        measured = mid_size(results[claim.id]["rows"])["speedup"]
        cells[HEADLINE, f"`{claim.id}`", 2] = approx(claim)
        cells[HEADLINE, f"`{claim.id}`", 3] = f"**{measured:.2f}x**"
    for row in results["table2"]["rows"]:
        n = row["bytes"]
        for column, path in ((1, "gflink"), (3, "native")):
            cells[TABLE2, str(n), column] = \
                f"{CLAIMS[f'table2-{path}-{n}'].paper:.3f}"
            cells[TABLE2, str(n), column + 1] = f"{row[f'{path}_mbps']:.3f}"
    return cells


def documented_rows(text, header):
    lines = text.splitlines()
    rows = {}
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[cells[0]] = cells
    return rows


def check_document(text, expected):
    for header in (HEADLINE, TABLE2):
        rows = documented_rows(text, header)
        assert set(rows) == {key for h, key, _ in expected if h == header}
        for (h, key, column), cell in expected.items():
            if h == header:
                assert rows[key][column] == cell, (key, header.split(
                    "|")[column + 1].strip())


class TestExperimentsDocument:
    def test_paper_and_measured_cells_are_the_table_and_the_last_record(
            self):
        check_document(DOC.read_text(),
                       expected_cells(recorded_runs()[-1]["results"]))

    def test_one_digit_changed_in_any_checked_cell_is_caught(self):
        text = DOC.read_text()
        expected = expected_cells(recorded_runs()[-1]["results"])
        for (header, key, column), cell in expected.items():
            digit = max(i for i, ch in enumerate(cell) if ch.isdigit())
            edited = (cell[:digit] + str((int(cell[digit]) + 1) % 10)
                      + cell[digit + 1:])
            line = next(line for line in text.splitlines()
                        if line.startswith(f"| {key} |"))
            cells = line.split("|")
            assert cells[column + 1].strip() == cell
            cells[column + 1] = f" {edited} "
            with pytest.raises(AssertionError):
                check_document(text.replace(line, "|".join(cells)), expected)

    def test_the_record_is_append_only_history(self):
        """One JSON document per line; the first seven are the per-PR result
        files this record replaced, in their PR order."""
        runs = recorded_runs()
        assert all(set(run) == {"commit", "pr", "results"} for run in runs)
        assert [run["pr"] for run in runs[:7]] == [1, 4, 5, 6, 8, 9, 10]


#: The paper's cluster as the benches build it, minus the tracing they turn
#: on (tracing never moves the simulated clock; profiling each run would
#: double this slice's host time).
CLUSTER = dataclasses.replace(paper_cluster_config(), flink=FlinkConfig())


def headline_factor(claim, config=CLUSTER):
    """The sweep's mid-size point alone: the factor the paper quotes."""
    size = mid_size(table1_sizes(claim.family))
    return sweep_claim(claim, [size], config).rows[0].speedup


class TestEngineHoldsTheTable:
    @pytest.mark.parametrize("claim", SWEEPS, ids=lambda claim: claim.id)
    def test_headline_factor_at_the_mid_table1_size(self, claim):
        claim.check(headline_factor(claim))

    def test_table2_every_cell(self):
        for path in ("gflink", "native"):
            for n in TABLE2_BYTES:
                CLAIMS[f"table2-{path}-{n}"].check(h2d_bandwidth(n, path))

    def test_fig8a_gc_policies_on_an_oversized_working_set(self):
        fifo_hits, fifo_evictions = gc_policy_counts("fifo")
        resident_hits, resident_evictions = gc_policy_counts("no-evict")
        CLAIMS["fig8a-fifo"].check(fifo_evictions)
        CLAIMS["fig8a-no-evict"].check(resident_evictions)
        assert resident_hits > fifo_hits

    def test_a_miscalibrated_engine_leaves_the_bands(self):
        """The gate's own negative case.  ``FlinkConfig.element_overhead_s``
        itself is the default the workloads override per operator
        (``OpCost.element_overhead_s`` = their ``CPU_OVERHEAD_S``), so the
        iterator overhead is perturbed where KMeans states it."""
        with mock.patch.object(KMeansWorkload, "CPU_OVERHEAD_S",
                               2 * KMeansWorkload.CPU_OVERHEAD_S), \
                pytest.raises(AssertionError, match="fig5a"):
            CLAIMS["fig5a"].check(headline_factor(CLAIMS["fig5a"]))
        slow_serde = dataclasses.replace(CLUSTER, flink=FlinkConfig(
            serde_bps=FlinkConfig().serde_bps / 100))
        with pytest.raises(AssertionError, match="fig5b"):
            CLAIMS["fig5b"].check(
                headline_factor(CLAIMS["fig5b"], slow_serde))
