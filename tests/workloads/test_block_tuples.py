"""The built-in keyed fold over a workload's blocks, held to the reference.

``pagerank-tuples``, ``cc-tuples`` and ``wordcount-tuples`` each spelled
``[(int(r[0]), float(r[1])) for r in rows]`` so that ``group_by(lambda kv:
kv[0]).reduce(lambda a, b: (a[0], a[1] + b[1]))`` could walk them.  The
three steps now hand their block on and
``group_by(0).reduce(field_sum(1))`` / ``reduce(field_min(1))`` fold it
whole.  On every block the three workloads hand a
``*-tuples`` step at their test sizes, the engine's fold over the block
must emit — values, Python types and order — what the reference's keyed
reduce (:mod:`tests.reference.interp`) gives over the rows spelled that
way with those lambdas.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core import GFlinkSession
from repro.flink.iterators import (apply_grouped_reduce, field, field_min,
                                   field_sum)
from repro.flink.payload import to_tuples
from repro.flink.plan import MapPartitionOp
from repro.workloads import (ConnectedComponentsWorkload, PageRankWorkload,
                             WordCountWorkload)
from tests.reference.interp import fold, group
from tests.workloads.conftest import small_cluster


def comprehension(rows, *casts):
    """The rows as the `*-tuples` steps spelled them."""
    return [tuple(cast(r[i]) for i, cast in enumerate(casts)) for r in rows]


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
                  for row in comprehension(block, *casts)]
        want = [fold(members, reduce_fn)
                for members in group(lifted, key_fn).values()]
        got = to_tuples(apply_grouped_reduce(
            np.concatenate([step(block) for block in blocks]),
            field(0), builtin))
        # values, Python types (-0.0 is not 0.0, 2 is not 2.0), order
        assert type(got) is list and repr(got) == repr(want)
        return len(lifted) - len(want)

    for block in handed:
        same_fold([block])
    # One producer's partials hold a key once; what a consumer folds is the
    # partials of all of them, in arrival order.
    assert same_fold(handed) > 0
