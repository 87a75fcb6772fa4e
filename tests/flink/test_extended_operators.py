"""Global sum, min and max, spelled as the one global aggregate: ``reduce``
(the ``sum`` / ``min`` / ``max`` shorthands were that reduce)."""

from hypothesis import given, settings, strategies as st

from repro.flink import FlinkSession
from tests.flink.conftest import make_cluster


class TestAggregateShorthands:
    def test_sum(self, session):
        result = session.from_collection(list(range(10))) \
            .reduce(lambda a, b: a + b).collect()
        assert result.value == [45]

    def test_sum_with_extractor(self, session):
        data = [("a", 2), ("b", 3)]
        result = session.from_collection(data).map(lambda kv: kv[1]) \
            .reduce(lambda a, b: a + b).collect()
        assert result.value == [5]

    def test_min_max(self, session):
        data = [("a", 5), ("b", 1), ("c", 9)]
        lo = session.from_collection(data).reduce(
            lambda a, b: a if a[1] <= b[1] else b).collect()
        hi = session.from_collection(data).reduce(
            lambda a, b: a if a[1] >= b[1] else b).collect()
        assert lo.value == [("b", 1)]
        assert hi.value == [("c", 9)]

    @given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1,
                    max_size=50))
    @settings(max_examples=15, deadline=None)
    def test_sum_property(self, data):
        session = FlinkSession(make_cluster())
        result = session.from_collection(list(data)) \
            .reduce(lambda a, b: a + b).collect()
        assert result.value == [sum(data)]
