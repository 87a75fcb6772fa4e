"""Tests for bulk iterations (plan-level loop unrolling)."""

import pytest

from repro.flink import FlinkSession, OpCost
from tests.flink.conftest import make_cluster


class TestIterate:
    def test_iterate_applies_step_n_times(self, session):
        result = session.from_collection([1.0, 2.0]) \
            .iterate(3, lambda ds: ds.map(lambda x: x * 2)) \
            .collect()
        assert sorted(result.value) == [8.0, 16.0]

    def test_iterate_zero_rejected(self, session):
        with pytest.raises(ValueError):
            session.from_collection([1]).iterate(0, lambda ds: ds)

    def test_step_must_return_dataset(self, session):
        with pytest.raises(TypeError):
            session.from_collection([1]).iterate(1, lambda ds: 42)

    def test_iterate_with_reduce_step(self, session):
        # Each step: pair-sums (keyed reduce) then re-expand; checks that
        # shuffles inside the unrolled loop work.
        def step(ds):
            return ds.group_by(lambda kv: kv[0]) \
                .reduce(lambda a, b: (a[0], a[1] + b[1])) \
                .map_partition(lambda part: [(k, v / 2) for k, v in part
                                             for _ in range(2)])

        data = [("a", 2.0), ("a", 2.0), ("b", 4.0)]
        result = session.from_collection(data).iterate(2, step) \
            .group_by(lambda kv: kv[0]) \
            .reduce(lambda a, b: (a[0], a[1] + b[1])).collect()
        totals = dict(result.value)
        assert totals["a"] == pytest.approx(4.0)
        assert totals["b"] == pytest.approx(4.0)

    def test_single_submit_overhead(self):
        """The whole unrolled loop pays job-submit exactly once."""
        cluster = make_cluster(n_workers=1, cores=1)
        session = FlinkSession(cluster)
        submit = cluster.config.flink.job_submit_s

        iterated = session.from_collection([1], element_nbytes=0.0) \
            .iterate(5, lambda ds: ds.map(lambda x: x)).count()
        assert iterated.metrics.submit_s == submit

        # The per-job pattern pays it every iteration.
        ds = session.from_collection([1], element_nbytes=0.0).persist()
        ds.materialize()
        per_job_total = 0.0
        current = ds
        for _ in range(5):
            current = current.map(lambda x: x).persist()
            per_job_total += current.materialize().seconds
        assert per_job_total > 5 * submit
        assert iterated.seconds < per_job_total

    def test_iterate_convergence_pattern(self, session):
        # Newton iteration for sqrt(2), carried through the dataset.
        result = session.from_collection([1.0]) \
            .iterate(8, lambda ds: ds.map(
                lambda x: 0.5 * (x + 2.0 / x),
                cost=OpCost(flops_per_element=4.0))) \
            .collect()
        assert result.value[0] == pytest.approx(2.0 ** 0.5, rel=1e-9)
