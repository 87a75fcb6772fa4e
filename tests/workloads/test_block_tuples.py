"""The block → tuples lift at the API edge, held to the comprehension it
replaced.

``pagerank-tuples``, ``cc-tuples`` and ``wordcount-tuples`` each spelled
``[(int(r[0]), float(r[1])) for r in rows]`` (one row view, two scalar
boxes and two casts per record); :func:`repro.workloads.base.block_tuples`
builds the same tuples a column at a time.  Same values, same Python types
— on hand-made edge cases and on every block the three workloads hand it
at their test sizes.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core import GFlinkSession
from repro.workloads import (ConnectedComponentsWorkload, PageRankWorkload,
                             WordCountWorkload)
from repro.workloads.base import block_tuples
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


WORKLOADS = {
    "pagerank": (lambda: PageRankWorkload(
        nominal_pages=1e5, real_pages=500, iterations=3), ("cpu", "gpu")),
    "connected_components": (lambda: ConnectedComponentsWorkload(
        nominal_pages=1e5, real_pages=300, iterations=4), ("cpu", "gpu")),
    # WordCount lifts only the GPU kernel's histogram rows.
    "wordcount": (lambda: WordCountWorkload(
        nominal_elements=1e4, real_elements=5000), ("gpu",)),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_equals_the_comprehension_on_every_block_the_workload_lifts(name):
    factory, modes = WORKLOADS[name]
    lifted = []

    def recording(rows, *casts):
        lifted.append((rows, casts))
        return block_tuples(rows, *casts)

    with mock.patch(f"repro.workloads.{name}.block_tuples", recording):
        for mode in modes:
            factory().run(GFlinkSession(small_cluster()), mode)
    assert len(lifted) >= 2 * len(modes)
    assert {casts for _, casts in lifted} == {
        (int, float) if name == "pagerank" else (int, int)}
    for rows, casts in lifted:
        assert_same_tuples(rows, *casts)
