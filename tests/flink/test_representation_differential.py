"""``sort_partition`` sorts *rows*, stably, whatever holds them.

A dataset of ``(k, v)`` rows can be a list of tuples, the stacked 2-D array
of the same rows or a structured (GStruct) array — the test that would have
caught ``sort_partition`` sorting *inside* each row of a 2-D block and
reversing ties under ``reverse=True``.  That every other operator returns
the same rows from all three is the payload axis of the reference sweep
(``tests/reference/test_plans.py``).
"""

import math

import pytest

from repro.flink import FlinkSession
from tests.flink.conftest import make_cluster, make_payload

FORMATS = ("list", "2d", "struct")


# A tuple, a 1-D row view or an ``np.void`` record: all index alike.
def key(row):
    return int(row[0])


def normalised(rows):
    """Rows as tuples of floats."""
    return [tuple(float(x) for x in row) for row in rows]


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
