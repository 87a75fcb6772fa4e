"""Every DataSet operator returns the same rows whatever holds them.

A dataset of ``(k, v)`` rows can be a list of tuples, the stacked 2-D array
of the same rows or a structured (GStruct) array.  Operators are written
once against :mod:`repro.flink.payload`, so the three must agree row for
row, in order — the test that would have caught ``sort_partition`` sorting
*inside* each row of a 2-D block and reversing ties under ``reverse=True``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.flink import FlinkSession
from tests.flink.conftest import depth, make_cluster, make_payload

FORMATS = ("list", "2d", "struct")


# UDFs see a tuple, a 1-D row view or an ``np.void`` record: all index alike.
def key(row):
    return int(row[0])


def value(row):
    return float(row[1])


OPERATORS = {
    "map": lambda a, b: a.map(lambda r: (key(r), value(r) * 2.0)),
    "filter": lambda a, b: a.filter(lambda r: r[1] > 0),
    "flat_map": lambda a, b: a.flat_map(
        lambda r: [(key(r), value(r))] * (key(r) % 3)),
    "map_partition": lambda a, b: a.map_partition(
        lambda rows: [(float(len(rows)), sum(value(r) for r in rows))]),
    "keyed_reduce": lambda a, b: a.group_by(key).reduce(
        lambda x, y: (key(x), value(x) + value(y))),
    "reduce_group": lambda a, b: a.group_by(key).reduce_group(
        lambda k, members: (k, float(len(members)),
                            sum(value(m) for m in members))),
    "reduce": lambda a, b: a.reduce(
        lambda x, y: (min(x[0], y[0]), x[1] + y[1])),
    "distinct": lambda a, b: a.distinct(key),
    "first": lambda a, b: a.first(3),
    "sort_partition": lambda a, b: a.sort_partition(),
    "sort_partition_reverse": lambda a, b: a.sort_partition(reverse=True),
    "sort_partition_key": lambda a, b: a.sort_partition(key),
    "sort_partition_key_reverse": lambda a, b: a.sort_partition(
        key, reverse=True),
    "union": lambda a, b: a.union(b),
    "cross": lambda a, b: a.cross(b, lambda l, r: (value(l), value(r))),
    "join": lambda a, b: a.join(
        b, key, key, lambda l, r: (key(l), value(l), value(r))),
    "co_group": lambda a, b: a.co_group(
        b, key, key, lambda k, ls, rs: (k, float(len(ls)), float(len(rs)))),
    "sum": lambda a, b: a.sum(value),
    "min": lambda a, b: a.min(lambda r: (value(r), key(r))),
    "max": lambda a, b: a.max(lambda r: (value(r), key(r))),
}


def normalised(rows):
    """Rows as tuples of floats (a scalar result is a 1-tuple)."""
    return [tuple(float(x) for x in row) if np.ndim(row) or
            isinstance(row, (tuple, np.void)) else (float(row),)
            for row in rows]


def run(operator, fmt, rows, other):
    session = FlinkSession(make_cluster())
    a, b = (session.from_collection(make_payload(fmt, r), element_nbytes=16.0)
            for r in (rows, other))
    if operator == "count":
        return a.count().value
    return normalised(OPERATORS[operator](a, b).collect().value)


rows_st = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-6, 6).map(float)),
    min_size=1, max_size=24)


class TestSameRowsFromEveryFormat:
    @pytest.mark.parametrize("operator", sorted(OPERATORS) + ["count"])
    @given(rows=rows_st, other=rows_st)
    @depth(tier1=12, full=150)
    def test_list_2d_and_struct_agree(self, operator, rows, other):
        expected = run(operator, "list", rows, other)
        assert run(operator, "2d", rows, other) == expected
        assert run(operator, "struct", rows, other) == expected


class TestSortPartitionOnBlocks:
    """``sort_partition`` sorts *rows*, stably, in every format."""

    ROWS = [(3, 1.0), (1, 2.0), (2, 0.0), (1, 0.5), (3, 0.0)]

    @staticmethod
    def sort_one_partition(payload, **kw):
        session = FlinkSession(make_cluster())
        job = session.from_collection(payload, element_nbytes=16.0,
                                      parallelism=1) \
            .sort_partition(**kw).collect()
        return normalised(job.value), job

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_no_key_sorts_whole_rows_not_inside_them(self, fmt):
        out, _ = self.sort_one_partition(make_payload(fmt, self.ROWS))
        # np.sort on the 2-D block used to hand back (1, 3), (1, 2), (0, 2)…
        assert out == [tuple(map(float, r)) for r in sorted(self.ROWS)]

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("reverse", [False, True])
    def test_key_sort_keeps_ties_in_order_even_reversed(self, fmt, reverse):
        out, _ = self.sort_one_partition(make_payload(fmt, self.ROWS), key_fn=key,
                                         reverse=reverse)
        assert out == [tuple(map(float, r)) for r in
                       sorted(self.ROWS, key=key, reverse=reverse)]

    def test_the_charge_does_not_depend_on_the_format(self):
        """Only the row order changed: every format still pays n log2 n
        comparisons on the iterator price list."""
        n = float(len(self.ROWS))
        cluster = make_cluster()
        per_comparison = (cluster.config.flink.element_overhead_s
                          + 1.0 / cluster.config.cpu.flops_per_core)
        for fmt in FORMATS:
            _, job = self.sort_one_partition(make_payload(fmt, self.ROWS),
                                             key_fn=key)
            assert job.metrics.compute_s == n * math.log2(n) * per_comparison
