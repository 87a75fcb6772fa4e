"""Unit and property tests for the exchange layer."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common import Environment
from repro.common.network import Network, NetworkConfig
from repro.flink import FlinkSession
from repro.flink.partition import Partition, split_evenly
from repro.flink.plan import ShipStrategy
from repro.flink.serialization import Serializer
from repro.flink.shuffle import Exchange, hash_bucket
from tests.flink.conftest import depth, make_cluster

WORKERS = ["w0", "w1"]


def make_exchange(env, strategy, producers, n_consumers, **kw):
    net = Network(env, WORKERS, NetworkConfig(latency_s=0.0))
    ser = Serializer(1e9)
    consumer_workers = [WORKERS[j % len(WORKERS)] for j in range(n_consumers)]
    return Exchange(env, net, ser, strategy, producers, n_consumers,
                    consumer_workers, **kw)


def run(env, exchange):
    proc = env.process(exchange.run())
    return env.run(until=proc)


def parts(elements, n, worker_cycle=WORKERS, element_nbytes=8.0, scale=1.0):
    ps = split_evenly(elements, n, element_nbytes, scale)
    for p in ps:
        p.worker = worker_cycle[p.index % len(worker_cycle)]
    return ps


class TestHashBucket:
    @given(st.integers())
    def test_int_keys_modulo(self, key):
        assert hash_bucket(key, 7) == key % 7

    @given(st.text(max_size=30), st.integers(min_value=1, max_value=64))
    def test_in_range_and_stable(self, key, n):
        b = hash_bucket(key, n)
        assert 0 <= b < n
        assert hash_bucket(key, n) == b

    def test_tuple_keys_supported(self):
        assert 0 <= hash_bucket(("a", 3), 5) < 5

    @given(st.integers(-2**70, 2**70), st.integers(1, 64))
    def test_an_integral_float_routes_as_the_int_it_equals(self, key, n):
        as_float = float(key)  # may round: route as the int *it* equals
        assert hash_bucket(as_float, n) == int(as_float) % n
        assert hash_bucket(np.float64(as_float), n) == int(as_float) % n

    def test_every_spelling_of_a_scalar_shares_a_bucket(self):
        for n in (2, 3, 4, 7, 40):
            for spellings in ([2, 2.0, np.int64(2), np.float64(2.0),
                               np.float32(2.0), np.uint8(2)],
                              [1, 1.0, True, np.bool_(True), np.float64(1)],
                              [0, 0.0, -0.0, False, np.float64(-0.0)],
                              [-3, -3.0, np.int8(-3)],
                              [0.5, np.float64(0.5), np.float32(0.5)]):
                assert len({hash(key) for key in spellings}) == 1
                assert len({hash_bucket(key, n) for key in spellings}) == 1
        # Not integral: still the repr's hash, in range.
        for key in (float("inf"), float("-inf"), float("nan"), 2.5):
            assert 0 <= hash_bucket(key, 7) < 7


#: Keys of every scalar type a keyed plan may mix; equal ones are one group.
scalar_keys = st.one_of(
    st.integers(-3, 6),
    st.integers(-3, 6).map(float),
    st.sampled_from([-0.0, 0.5, 2.5, -1.5]),
    st.booleans(),
    st.integers(-3, 6).map(np.int64),
    st.integers(-3, 6).map(np.float64),
    st.booleans().map(np.bool_))


class TestEqualKeysReachOneConsumer:
    """A keyed plan's answer does not depend on its parallelism: keys that
    are one ``dict`` key (``2``, ``2.0``, ``np.float64(2)``; ``1`` and
    ``True``) are one group however many consumers the exchange has."""

    @staticmethod
    def keyed_sum(rows, parallelism):
        session = FlinkSession(make_cluster(n_workers=3, cores=2))
        return session.from_collection(rows, parallelism=parallelism) \
            .group_by(lambda kv: kv[0]) \
            .reduce(lambda a, b: (a[0], a[1] + b[1]),
                    parallelism=parallelism).collect().value

    def test_int_and_float_spellings_collect_one_row_on_two_workers(self):
        rows = [(2, 1.0), (2.0, 1.0), (3, 1.0), (3.0, 1.0), (5, 1.0)]
        expected = [(2, 2.0), (3, 2.0), (5, 1.0)]
        assert sorted(self.keyed_sum(rows, 1)) == expected
        assert sorted(self.keyed_sum(rows, 2)) == expected

    @depth(tier1=15, full=300)
    @given(st.lists(st.tuples(scalar_keys, st.integers(-5, 5)),
                    min_size=1, max_size=30))
    def test_same_multiset_at_parallelism_1_2_and_5(self, rows):
        # Integer values: sums are exact in any order, and equal keys of
        # different types compare (and count) as one.
        one, two, five = (Counter(self.keyed_sum(rows, p)) for p in (1, 2, 5))
        assert one == two == five
        assert len(one) == len({key for key, _ in rows})


class TestExchangeStrategies:
    def test_hash_partitions_by_key(self):
        env = Environment()
        producers = parts([(i % 6, i) for i in range(60)], 3)
        ex = make_exchange(env, ShipStrategy.HASH, producers, 4,
                           key_fn=lambda kv: kv[0])
        result = run(env, ex)
        assert len(result.inputs) == 4
        seen = []
        for j, part in enumerate(result.inputs):
            for key, _ in part.elements:
                assert hash_bucket(key, 4) == j
            seen.extend(part.elements)
        assert sorted(seen) == sorted((i % 6, i) for i in range(60))

    def test_gather_collects_everything_to_one(self):
        env = Environment()
        producers = parts(list(range(30)), 3)
        ex = make_exchange(env, ShipStrategy.GATHER, producers, 1)
        result = run(env, ex)
        assert sorted(result.inputs[0].elements) == list(range(30))

    def test_rebalance_even_split(self):
        env = Environment()
        producers = parts(list(range(100)), 2)
        ex = make_exchange(env, ShipStrategy.REBALANCE, producers, 4)
        result = run(env, ex)
        sizes = [len(p.elements) for p in result.inputs]
        assert sum(sizes) == 100
        assert max(sizes) - min(sizes) <= 2

    def test_broadcast_full_copy_everywhere(self):
        env = Environment()
        producers = parts(list(range(10)), 2)
        ex = make_exchange(env, ShipStrategy.BROADCAST, producers, 3)
        result = run(env, ex)
        for part in result.inputs:
            assert sorted(part.elements) == list(range(10))

    def test_forward_parallelism_mismatch_rejected(self):
        env = Environment()
        producers = parts(list(range(10)), 2)
        ex = make_exchange(env, ShipStrategy.FORWARD, producers, 3)
        with pytest.raises(ValueError):
            run(env, ex)

    def test_combiner_shrinks_traffic(self):
        def traffic(combiner):
            env = Environment()
            producers = parts([(i % 2, 1) for i in range(200)], 2,
                              element_nbytes=100.0)
            ex = make_exchange(env, ShipStrategy.HASH, producers, 2,
                               key_fn=lambda kv: kv[0], combiner=combiner)
            result = run(env, ex)
            total = sorted(x for p in result.inputs for x in p.elements)
            return result.bytes_shuffled, total

        raw_bytes, _ = traffic(None)
        combined_bytes, combined = traffic(
            (lambda kv: kv[0], lambda a, b: (a[0], a[1] + b[1])))
        assert combined_bytes < raw_bytes
        # The exchange ships one partial per (producer, key); the consumer
        # operator merges them.  Totals must be preserved.
        totals = {}
        for key, value in combined:
            totals[key] = totals.get(key, 0) + value
        assert totals == {0: 100, 1: 100}

    def test_nominal_scale_preserved_through_hash(self):
        env = Environment()
        producers = parts(list(range(50)), 2, scale=100.0)
        ex = make_exchange(env, ShipStrategy.HASH, producers, 2,
                           key_fn=lambda x: x)
        result = run(env, ex)
        total_nominal = sum(p.nominal_count for p in result.inputs)
        assert total_nominal == pytest.approx(50 * 100.0)

    @given(st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=0, max_size=200),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=8))
    def test_hash_exchange_preserves_multiset(self, elements, p, q):
        env = Environment()
        producers = parts(list(elements), p)
        ex = make_exchange(env, ShipStrategy.HASH, producers, q,
                           key_fn=lambda x: x)
        result = run(env, ex)
        out = sorted(x for part in result.inputs for x in part.elements)
        assert out == sorted(elements)
