"""Edge cases of CPU operator chaining (FusedMapOp) at execution time.

The plan-level detection rules live in ``tests/flink/test_optimizer.py``;
these tests run the fused chains and check the tricky inputs: empty
partitions, persisted boundaries, explicit parallelism, and vectorized UDFs
handing ndarrays (or nothing) to a downstream stage.  A stage that changes
the element count is a ``map_partition`` that drops or repeats rows.
"""

import numpy as np

from repro.flink import ClusterConfig, CPUSpec, FlinkConfig, FlinkSession
from repro.flink.iterators import apply_map, vectorized
from repro.flink.runtime import Cluster


def keep(pred):
    """A partition function that drops the rows failing ``pred``."""
    return lambda rows: [x for x in rows if pred(x)]


def twice(rows):
    """A partition function that repeats every row."""
    return [y for x in rows for y in (x, x)]


def chained_session(enable=True, cores=2):
    flink = FlinkConfig(enable_chaining=enable)
    config = ClusterConfig(n_workers=1, cpu=CPUSpec(cores=cores), flink=flink)
    return FlinkSession(Cluster(config))


def both_ways(build):
    """Run ``build(session)`` chained and unchained; return both values."""
    results = {}
    for enable in (True, False):
        results[enable] = build(chained_session(enable))
    return results[True], results[False]


class TestEmptyPartitions:
    def test_empty_partitions_flow_through_chain(self):
        def run(session):
            # 2 elements over 4 slots: at least two subtasks see no data.
            return sorted(
                session.from_collection([1, 2], parallelism=4)
                .map(lambda x: x + 1)
                .map_partition(keep(lambda x: x % 2 == 0))
                .map_partition(twice)
                .collect().value)

        chained, unchained = both_ways(run)
        assert chained == unchained == [2, 2]

    def test_fully_empty_dataset(self):
        def run(session):
            return session.from_collection([], parallelism=2) \
                .map(lambda x: x) \
                .map_partition(list) \
                .collect().value

        chained, unchained = both_ways(run)
        assert chained == unchained == []

    def test_filter_to_empty_mid_chain(self):
        def run(session):
            return session.from_collection(list(range(8)), parallelism=2) \
                .map(lambda x: x + 1) \
                .map_partition(keep(lambda x: x > 100)) \
                .map(lambda x: x * 2) \
                .collect().value

        chained, unchained = both_ways(run)
        assert chained == unchained == []


class TestPersistBoundary:
    def test_persisted_midpoint_reused_across_jobs(self):
        session = chained_session(True)
        mid = session.from_collection(list(range(20))) \
            .map(lambda x: x + 1).map(lambda x: x * 2)
        mid.persist()
        first = sorted(mid.map_partition(list).collect().value)
        second = sorted(mid.map(lambda x: x + 1).collect().value)
        assert first == sorted((np.arange(20) + 1) * 2)
        assert second == sorted((np.arange(20) + 1) * 2 + 1)

    def test_persisted_op_keeps_own_span(self):
        session = chained_session(True)
        mid = session.from_collection([1, 2, 3]).map(lambda x: x, name="pre")
        mid.persist()
        result = mid.map(lambda x: x, name="a") \
            .map(lambda x: x, name="b").collect()
        names = [s.name for s in result.metrics.operator_spans.values()]
        assert "pre" in names                       # not absorbed
        assert any(n.startswith("chain(") for n in names)  # a->b fused


class TestExplicitParallelism:
    def test_pinned_stage_results_identical(self):
        def run(session):
            return sorted(
                session.from_collection(list(range(30)), parallelism=2)
                .map(lambda x: x + 1)
                # Explicitly pinned (even at the same degree): FORWARD
                # needs equal parallelism, but explicitness breaks fusion.
                .map(lambda x: x * 2, parallelism=2)
                .map(lambda x: x - 1)
                .collect().value)

        chained, unchained = both_ways(run)
        assert chained == unchained
        assert chained == sorted((x + 1) * 2 - 1 for x in range(30))

    def test_pinned_stage_not_inside_a_chain(self):
        session = chained_session(True, cores=4)
        result = session.from_collection(list(range(12)), parallelism=4) \
            .map(lambda x: x, name="a") \
            .map(lambda x: x, name="pinned", parallelism=4) \
            .map(lambda x: x, name="b").collect()
        names = [s.name for s in result.metrics.operator_spans.values()]
        assert "pinned" in names
        assert not any("pinned" in n and n.startswith("chain(")
                       for n in names)


class TestVectorizedUdfsInChains:
    def test_vectorized_flat_map_ndarray_through_chain(self):
        doubler = vectorized(lambda xs: np.repeat(np.asarray(xs), 2))

        def run(session):
            return sorted(
                session.from_collection(np.arange(10.0), element_nbytes=8,
                                        parallelism=2)
                .map(lambda x: x + 1)
                .map_partition(doubler)
                .map(lambda x: x * 10)
                .collect().value)

        chained, unchained = both_ways(run)
        assert chained == unchained
        assert chained == sorted(np.repeat(np.arange(10.0) + 1, 2) * 10)

    def test_vectorized_flat_map_none_means_empty(self):
        drop_all = vectorized(lambda xs: None)

        def run(session):
            return session.from_collection(list(range(10)), parallelism=2) \
                .map_partition(drop_all) \
                .map(lambda x: x) \
                .collect().value

        chained, unchained = both_ways(run)
        assert chained == unchained == []


class TestIteratorNormalization:
    """The ``apply_*`` helpers normalize missing/empty payloads uniformly."""

    def test_none_payload_becomes_empty_list(self):
        assert apply_map(None, lambda x: x) == []

    def test_empty_ndarray_keeps_dtype(self):
        empty = np.array([], dtype=np.float64)
        out = apply_map(empty, lambda x: x)
        assert isinstance(out, np.ndarray) and out.dtype == np.float64
