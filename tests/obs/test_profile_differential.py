"""The indexed GProfiler held to the scanning reference, section by section.

``tests/obs/reference_profile.py`` keeps the analyses as they were before
``ProfileTrace`` grew its index (every query a rescan of ``trace.spans``).
Here generated traces and the committed CI traces go through both; every
summary section must come out *equal* — same floats, not close floats — and
``operators`` too wherever each operator name occurs once (a repeated name
is the one place the two differ on purpose, see ``test_profile_iterative``).
"""

from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.obs.profile import ProfileTrace, _subtract, _union, summarize
from tests.flink.conftest import depth
# A frozen oracle kept on evidence: it alone catches the interval
# subtraction that steps past an interval reaching into the next
# (tests/reference/test_mutants.py), which no profile check of a real trace
# meets.
from tests.obs import reference_profile as reference
from tests.obs.test_profile import (
    add_device, add_exchange, add_hdfs, add_job, add_operator, add_submit,
    add_task, tracer)

TRACES_DIR = Path(__file__).resolve().parents[2] / "traces"

#: ``worker1`` is a string prefix of the other two: a device or HDFS lane
#: matched to its worker by prefix would leak between them.
WORKERS = ("worker1", "worker10", "worker11")
OPS = ("A", "B", "C", "D")

#: Instants on a coarse grid, nudged by less than, exactly and more than one
#: clock tick — so spans abut, overlap and miss each other within TICK_S.
instants = st.builds(
    lambda cell, nudge: cell * 0.5 + nudge,
    st.integers(0, 24),
    st.sampled_from((0.0, 4e-10, -4e-10, 1e-9, -1e-9, 2.5e-9)))


@st.composite
def windows(draw, zero_ok=True):
    """A ``(start, end)`` pair; zero-duration spans included."""
    a, b = draw(instants), draw(instants)
    if a == b and not zero_ok:
        b = a + 0.5
    return min(a, b), max(a, b)


def add_recovery(t, op, start, end):
    t.complete(f"recover:{op}", "recovery", t.track("master", "jobmanager"),
               start=start, end=end, op=op, parallelism=1)


def record(add, *args, **kwargs):
    """A recording call waiting for its tracer."""
    return lambda t: add(t, *args, **kwargs)


@st.composite
def traces(draw, unique_names):
    """A trace replayed from recording calls in a drawn order (the
    profiler's last tie-break is trace order, so the order is an input)."""
    calls = []
    if draw(st.booleans()):
        calls.append(record(add_job, *draw(windows(zero_ok=False))))
    if draw(st.booleans()):
        calls.append(record(add_submit, *draw(windows())))
    for op in draw(st.lists(st.sampled_from(OPS), max_size=4,
                            unique=unique_names)):
        calls.append(record(add_operator, op, *draw(windows()),
                             parallelism=draw(st.integers(1, 4))))
    # A recovery span is an operator occurrence under the recovered
    # operator's name: a fresh name when names must stay unique.
    for op in draw(st.lists(
            st.sampled_from(("R",) if unique_names else OPS + ("R",)),
            max_size=1 if unique_names else 2)):
        calls.append(record(add_recovery, op, *draw(windows())))
    # Tasks name any operator (also ones with no operator span) and may
    # start before, straddle or lie outside their operator's window.
    for _ in range(draw(st.integers(0, 8))):
        calls.append(record(
            add_task, draw(st.sampled_from(OPS + ("R",))), *draw(windows()),
            worker=draw(st.sampled_from(WORKERS)),
            slot=draw(st.sampled_from(("slot0", "slot1", "io"))),
            subtask=draw(st.integers(0, 1))))
    for _ in range(draw(st.integers(0, 2))):
        calls.append(record(add_exchange, draw(st.sampled_from(OPS)),
                             *draw(windows())))
    for worker in WORKERS:
        for gpu in range(draw(st.integers(0, 2))):
            for _ in range(draw(st.integers(0, 4))):
                calls.append(record(
                    add_device, *draw(st.sampled_from((
                        ("h2d", "copy:h2d"), ("d2h", "copy:d2h"),
                        ("contrib", "kernel")))), *draw(windows()),
                    device=f"{worker}-gpu{gpu}",
                    nbytes=draw(st.integers(0, 1000))))
        for _ in range(draw(st.integers(0, 2))):
            calls.append(record(add_hdfs, *draw(windows()), worker=worker))
    t = tracer()
    for call in draw(st.permutations(calls)):
        call(t)
    return t


def both(trace):
    return summarize(trace), reference.summarize(trace)


class TestAgainstTheScanningReference:
    @given(traces(unique_names=True))
    @depth(tier1=40, full=300)
    def test_unique_operator_names_summarise_identically(self, t):
        got, expected = both(ProfileTrace.from_tracer(t))
        assert got == expected

    @given(traces(unique_names=False))
    @depth(tier1=40, full=300)
    def test_every_other_section_is_identical_under_repeated_names(self, t):
        got, expected = both(ProfileTrace.from_tracer(t))
        repeated = {op for op, entry in got["operators"].items()
                    if "occurrences" in entry}
        for section in expected:
            if section != "operators":
                assert got[section] == expected[section], section
        assert set(got["operators"]) == set(expected["operators"])
        for op in set(got["operators"]) - repeated:
            assert got["operators"][op] == expected["operators"][op]
        for op in repeated:
            shares = got["operators"][op]["shares"]
            assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)

    @given(traces(unique_names=False))
    @depth(tier1=25, full=100)
    def test_chrome_round_trip_matches_its_own_oracle(self, t):
        got, expected = both(ProfileTrace.from_chrome(t.to_chrome()))
        for section in expected:
            if section != "operators":
                assert got[section] == expected[section], section

    @given(st.lists(windows()), st.lists(windows()))
    @depth(tier1=60, full=300)
    def test_two_pointer_subtract(self, base, minus):
        base, minus = _union(base), _union(minus)
        assert _subtract(base, minus) == reference._subtract(base, minus)

    @pytest.mark.parametrize("name", [
        "ci_wordcount", "ci_wordcount_vectorized", "ci_churn_wordcount",
        "ci_chaos_wordcount"])
    def test_committed_traces(self, name):
        path = TRACES_DIR / f"{name}.json"
        if not path.exists():
            pytest.skip("no CI trace on disk (scripts/ci.sh writes them)")
        got, expected = both(ProfileTrace.load(path))
        assert got == expected
        assert got["operators"]
        assert not any("occurrences" in entry
                       for entry in got["operators"].values())
