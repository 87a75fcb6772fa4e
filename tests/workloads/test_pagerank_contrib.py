"""PageRank's contribution step, held to a per-edge reference.

``_contrib_partials`` is both the CPU ``map_partition`` UDF and the body of
the ``pagerank_contrib`` GPU kernel: it sums every edge's
``rank[src] / out_degree[src]`` into its destination and emits one
``[dst, partial]`` row per destination whose partial is non-zero,
ascending.  The reference walks the edges one at a time into a dict; both
callers must return its rows bit for bit — a destination whose
contributions are all ``0.0`` (its sources have rank 0) emits nothing.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import GFlinkSession
from repro.workloads.pagerank import (Edge, _contrib_partials,
                                      pagerank_contrib_kernel)
from tests.workloads.conftest import small_cluster


def per_edge(edges, ranks, out_degree):
    """One edge at a time, in edge order; destinations ascending."""
    sums = {}
    for s, d in zip(edges["src"].tolist(), edges["dst"].tolist()):
        sums[d] = sums.get(d, 0.0) + ranks[s] / out_degree[s]
    rows = [(float(d), sums[d]) for d in sorted(sums) if sums[d] != 0.0]
    return np.array(rows, dtype=np.float64).reshape(-1, 2)


def edge_block(pairs):
    edges = Edge.empty(len(pairs))
    if pairs:
        edges["src"], edges["dst"] = zip(*pairs)
    return edges


@st.composite
def graphs(draw):
    """An edge block over ``pages`` pages, ranks with zeros among them."""
    pages = draw(st.integers(1, 30))
    page = st.integers(0, pages - 1)
    pairs = draw(st.lists(st.tuples(page, page), max_size=80))
    ranks = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
        min_size=pages, max_size=pages)))
    out_degree = np.ones(pages)
    for s, _ in pairs:
        out_degree[s] += 1.0
    return edge_block(pairs), ranks, out_degree


def cpu_udf(edges, ranks, out_degree):
    """Through ``map_partition`` over one partition, as PageRank's CPU plan
    calls it."""
    session = GFlinkSession(small_cluster())
    result = session.from_collection(
        edges, element_nbytes=Edge.itemsize(), parallelism=1).map_partition(
        lambda e: _contrib_partials(e, ranks, out_degree)).collect()
    return np.asarray(result.value, dtype=np.float64).reshape(-1, 2)


def gpu_kernel(edges, ranks, out_degree):
    return pagerank_contrib_kernel(
        {"in": edges, "ranks": ranks, "out_degree": out_degree}, {})["out"]


def assert_same_rows(out, expected):
    assert out.dtype == np.float64 and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


class TestContribPartials:
    @given(graph=graphs())
    @settings(max_examples=60, deadline=None)
    def test_kernel_equals_the_per_edge_sum(self, graph):
        assert_same_rows(gpu_kernel(*graph), per_edge(*graph))

    @given(graph=graphs())
    @settings(max_examples=15, deadline=None)
    def test_cpu_udf_equals_the_per_edge_sum(self, graph):
        assert_same_rows(cpu_udf(*graph), per_edge(*graph))

    def test_zero_rank_destination_is_dropped(self):
        # Page 2 is reached only from page 0, whose rank is 0.
        edges = edge_block([(0, 2), (1, 3), (0, 2), (3, 1)])
        ranks = np.array([0.0, 0.5, 0.25, 0.25])
        degree = np.array([2.0, 1.0, 1.0, 1.0])
        expected = np.array([[1.0, 0.25], [3.0, 0.5]])
        for call in (gpu_kernel, cpu_udf):
            assert_same_rows(call(edges, ranks, degree), expected)
            assert_same_rows(call(edges, ranks, degree),
                             per_edge(edges, ranks, degree))

    def test_empty_block_and_one_page(self):
        ranks, degree = np.array([0.5, 0.5]), np.array([1.0, 2.0])
        for pairs in ([], [(1, 0), (1, 0)]):
            edges = edge_block(pairs)
            for call in (gpu_kernel, cpu_udf):
                assert_same_rows(call(edges, ranks, degree),
                                 per_edge(edges, ranks, degree))
