"""The block → tuples lift, retired: an oracle held to the comprehension
it replaced, and the oracle of the built-in keyed fold that replaced it.

``pagerank-tuples``, ``cc-tuples`` and ``wordcount-tuples`` each spelled
``[(int(r[0]), float(r[1])) for r in rows]`` (one row view, two scalar
boxes and two casts per record), then ``block_tuples`` built the same tuples
a column at a time, so that ``group_by(lambda kv: kv[0]).reduce(lambda a, b:
(a[0], a[1] + b[1]))`` could walk them.  Since PR 23 the three steps hand
their block on and ``group_by(0).sum(1)`` / ``.min(1)`` fold it whole;
``block_tuples`` lives in ``tests/flink/retired.py``.  Same values, same
Python types — on hand-made edge cases, and on every block the three
workloads hand a ``*-tuples`` step at their test sizes: the engine's fold
over the block must emit what ``fold_by_key`` emits over the lifted tuples
with the retired lambdas.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core import GFlinkSession
from repro.flink.iterators import (apply_grouped_reduce, field, field_min,
                                   field_sum, fold_by_key)
from repro.flink.payload import to_tuples
from repro.flink.plan import MapPartitionOp
from repro.workloads import (ConnectedComponentsWorkload, PageRankWorkload,
                             WordCountWorkload)
from tests.flink.retired import block_tuples
from tests.workloads.conftest import small_cluster


def comprehension(rows, *casts):
    """The retired spelling."""
    return [tuple(cast(r[i]) for i, cast in enumerate(casts)) for r in rows]


def assert_same_tuples(rows, *casts):
    got = block_tuples(rows, *casts)
    want = comprehension(rows, *casts)
    assert type(got) is list and got == want
    for row in got:
        assert type(row) is tuple
        assert tuple(map(type, row)) == casts
    # == lets -0.0 pass for 0.0 and 2 for 2.0; the spelling does not.
    assert repr(got) == repr(want)
    return got


class TestEdgeCases:
    def test_values_truncate_toward_zero_like_int(self):
        block = np.array([[-1.7, 0.1], [1.9, -0.0], [-0.5, 1e300],
                          [2.0 ** 53, 5e-324], [-7.0, -2.5]])
        got = assert_same_tuples(block, int, float)
        assert [k for k, _ in got] == [-1, 1, 0, 2 ** 53, -7]
        assert assert_same_tuples(np.array([[-1.7, 2.9], [0.5, -0.5]]),
                                  int, int) == [(-1, 2), (0, 0)]

    def test_integer_blocks_keep_their_exact_values(self):
        block = np.array([[2 ** 62, -2 ** 62], [0, 7]], dtype=np.int64)
        assert_same_tuples(block, int, int)
        assert_same_tuples(block, int, float)

    @pytest.mark.parametrize("empty", [
        np.empty((0, 2)), np.empty((0, 2), dtype=np.int64), [], ()],
        ids=["float-block", "int-block", "list", "tuple"])
    def test_an_empty_payload_is_an_empty_list(self, empty):
        assert block_tuples(empty, int, float) == []
        assert comprehension(empty, int, float) == []

    def test_one_row_and_a_row_list(self):
        assert_same_tuples(np.array([[3.0, 0.25]]), int, float)
        assert_same_tuples([np.array([3.0, 0.25]), np.array([4.0, 0.5])],
                           int, float)


def _sum(a, b):
    return (a[0], a[1] + b[1])


#: factory, modes, the retired casts / key / reducer, the built-in reducer.
WORKLOADS = {
    "pagerank": (lambda: PageRankWorkload(
        nominal_pages=1e5, real_pages=500, iterations=3), ("cpu", "gpu"),
        (int, float), lambda kv: kv[0], _sum, field_sum(1)),
    "connected_components": (lambda: ConnectedComponentsWorkload(
        nominal_pages=1e5, real_pages=300, iterations=4), ("cpu", "gpu"),
        (int, int), lambda kv: kv[0],
        lambda a, b: (a[0], min(a[1], b[1])), field_min(1)),
    # WordCount has a tuples step only behind the GPU kernel's histogram.
    "wordcount": (lambda: WordCountWorkload(
        nominal_elements=1e4, real_elements=5000), ("gpu",),
        (int, int), lambda wc: int(wc[0]), _sum, field_sum(1)),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_equals_the_comprehension_on_every_block_the_workload_lifts(name):
    factory, modes, casts, key_fn, reduce_fn, builtin = WORKLOADS[name]
    handed = []
    transform = MapPartitionOp._transform

    def recording(op, elements):
        if op.name.endswith("-tuples"):
            handed.append(elements)
            steps.append(op.udf)
        return transform(op, elements)

    steps = []
    with mock.patch.object(MapPartitionOp, "_transform", recording):
        for mode in modes:
            factory().run(GFlinkSession(small_cluster()), mode)
    assert len(handed) >= 2 * len(modes)
    step = steps[0]  # every step of a workload does the same thing

    def same_fold(blocks):
        lifted = [row for block in blocks
                  for row in block_tuples(block, *casts)]
        want = fold_by_key(lifted, key_fn, reduce_fn)[0]
        got = to_tuples(apply_grouped_reduce(
            np.concatenate([step(block) for block in blocks]),
            field(0), builtin))
        # values, Python types (-0.0 is not 0.0, 2 is not 2.0), order
        assert type(got) is list and repr(got) == repr(want)
        return len(lifted) - len(want)

    for block in handed:
        assert_same_tuples(block, *casts)
        same_fold([block])
    # One producer's partials hold a key once; what a consumer folds is the
    # partials of all of them, in arrival order.
    assert same_fold(handed) > 0
