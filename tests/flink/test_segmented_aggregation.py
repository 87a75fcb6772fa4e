"""Segmented keyed aggregation: bit-identity with the element path.

The columnar path groups a block with one sort (``group_plan``), calls a
``vectorized()`` keyed reducer once as ``reduce_fn(block, starts)`` and,
inside an exchange, combines before it routes.  None of that may move a
bit of the result, its row order, the simulated clock or the accounting —
checked here on generated inputs against the element path
(``fold_by_key``: a left fold per key), plus a deterministic guard that
the UDFs really run once per block rather than once per bucket or per
group.
"""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common import Environment
from repro.flink import FlinkSession
from repro.flink.chaos import values_equal
from repro.flink.iterators import (apply_grouped_reduce, field_sum,
                                   vectorized)
from repro.flink.partition import Partition
from repro.flink.payload import (bucket_plan, group_plan, real_len,
                                 segment_fold)
from repro.flink.plan import ShipStrategy
from repro.flink.shuffle import hash_bucket
from tests.flink.conftest import make_cluster
from tests.flink.test_shuffle_accounting import WORKERS, make_exchange, run

RECORD = np.dtype([("k", np.int64), ("v", np.float64)])

# -- the two block layouts and their UDFs ------------------------------------


def plain_key(rows):
    return rows[:, 0].astype(np.int64)


def plain_sum(block, starts):
    out = block[starts]
    out[:, 1] = segment_fold(np.add, block[:, 1], starts)
    return out


def struct_key(rows):
    return rows["k"]


def struct_sum(block, starts):
    out = block[starts]
    out["v"] = segment_fold(np.add, block["v"], starts)
    return out


def make_block(pairs, structured):
    if structured:
        return np.array(pairs, dtype=RECORD)
    return np.array(pairs, dtype=np.float64).reshape(len(pairs), 2)


def udfs(structured):
    return ((struct_key, struct_sum) if structured
            else (plain_key, plain_sum))


def element_path(pairs):
    """Reference: the row loop's grouping and a left fold per group."""
    return apply_grouped_reduce(pairs, lambda kv: kv[0],
                                lambda a, b: (a[0], a[1] + b[1]))


def same_bits(payload, pairs, structured):
    """Row-for-row, bit-for-bit equality of a payload with (k, v) pairs."""
    if len(payload) != len(pairs):
        return False
    if not pairs:
        return True
    if not isinstance(payload, np.ndarray):  # row path: a list of rows
        payload = np.array([tuple(r) for r in payload],
                           dtype=RECORD if structured else np.float64)
    return payload.tobytes() == make_block(pairs, structured).tobytes()


def dict_grouping(keys, q):
    """Reference plan of a key list: rows ordered by (bucket, first-seen
    key, position), a segment start per key, each bucket's segments."""
    first_seen = {}
    for pos, k in enumerate(keys):
        first_seen.setdefault(k, pos)
    bucket = [k % q if q > 1 else 0 for k in keys]
    order = sorted(range(len(keys)),
                   key=lambda i: (bucket[i], first_seen[keys[i]], i))
    starts = [n for n, i in enumerate(order)
              if n == 0 or keys[i] != keys[order[n - 1]]]
    bounds = [sum(bucket[order[s]] < j for s in starts) for j in range(q + 1)]
    return order, starts, bounds


keys_st = st.one_of(st.integers(-40, 40), st.integers(-2**40, 2**40),
                    st.just(7))
values_st = st.one_of(
    st.floats(allow_nan=False, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("inf"), 5e-324, -5e-324, 1e308, 0.1]))
pairs_st = st.lists(st.tuples(keys_st, values_st), max_size=60)


# 1e308 + 1e308, inf + -inf: NumPy warns where the element path's float add
# is silent.
pytestmark = pytest.mark.filterwarnings(
    "ignore:(overflow|invalid value) encountered in add")


class TestSegmentedReduce:
    @given(pairs=pairs_st, structured=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_element_path_bit_for_bit(self, pairs, structured):
        key_fn, reduce_fn = udfs(structured)
        block = make_block(pairs, structured)
        out = apply_grouped_reduce(block, vectorized(key_fn),
                                   vectorized(reduce_fn))
        expected = element_path(pairs)
        assert same_bits(out, expected, structured)
        if not any(np.isnan(v) for _, v in expected):  # inf + -inf
            assert values_equal([tuple(r) for r in out], expected)

    @given(keys=st.lists(st.integers(-100, 100), max_size=80),
           q=st.integers(1, 64))
    @settings(max_examples=150, deadline=None)
    def test_plan_orders_by_bucket_then_first_seen_then_position(
            self, keys, q):
        plan = group_plan(np.array(keys, dtype=np.int64), q)
        order, starts, bounds = dict_grouping(keys, q)
        assert plan.order.tolist() == order
        assert plan.starts.tolist() == starts
        assert plan.bounds.tolist() == bounds

    @given(keys=st.one_of(
               st.tuples(st.lists(st.integers(-2**40, 2**40), unique=True,
                                  max_size=200), st.integers(1, 64)),
               st.tuples(st.lists(st.floats(allow_nan=False), unique=True,
                                  max_size=200), st.just(1))),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_distinct_keys_are_one_row_segments(self, keys, data):
        # Every key distinct, as in a producer block PageRank pre-summed:
        # the plan is still the dict grouping's, each row its own segment,
        # and folding one-row segments returns fresh rows, not the input.
        keys, q = keys
        plan = group_plan(np.array(keys), q)
        order, starts, bounds = dict_grouping(keys, q)
        assert plan.order.tolist() == order
        assert plan.starts.tolist() == starts == list(range(len(keys)))
        assert plan.bounds.tolist() == bounds
        values = data.draw(st.lists(st.floats(allow_nan=False),
                                    min_size=len(keys), max_size=len(keys)))
        block = make_block(list(zip(keys, values)), structured=False)
        before = block.tobytes()
        grouped = block[plan.order]
        folded = segment_fold(np.add, grouped[:, 1], plan.starts)
        reduced = field_sum(1).reduce(grouped, plan.starts)
        assert folded.tobytes() == grouped[:, 1].tobytes()
        assert reduced.tobytes() == grouped.tobytes()
        folded[:] = reduced[:] = 1.0
        assert grouped.tobytes() == block[plan.order].tobytes()
        assert block.tobytes() == before

    @given(keys=st.lists(st.integers(-100, 100), max_size=80),
           q=st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_bucket_plan_equals_per_row_routing(self, keys, q):
        arr = np.array(keys, dtype=np.int64)
        order, cuts = bucket_plan(arr % q, q)
        routed = arr[order]
        for j in range(q):
            assert routed[cuts[j]:cuts[j + 1]].tolist() == [
                k for k in keys if hash_bucket(k, q) == j]

    def test_long_segment_is_a_left_fold_not_a_pairwise_sum(self):
        # reduceat sums runs of this length pairwise and lands elsewhere.
        rng = np.random.default_rng(3)
        column = rng.random(5000) * 10.0 ** rng.integers(-8, 8, 5000)
        acc = column[0]
        for v in column[1:]:
            acc = acc + v
        assert segment_fold(np.add, column, np.array([0]))[0] == acc
        assert np.add.reduceat(column, [0])[0] != acc


class TestKeyDtypes:
    """Grouping takes any sortable key column; only HASH routing needs ints."""

    FLOAT_BLOCK = np.array([[0.5, 1.0], [-0.0, 2.0], [0.5, 3.0], [0.0, 4.0]])
    first_column = staticmethod(vectorized(lambda rows: rows[:, 0]))

    def test_float_key_column_reduces(self):
        out = apply_grouped_reduce(self.FLOAT_BLOCK, self.first_column,
                                   vectorized(plain_sum))
        assert out.tolist() == [[0.5, 4.0], [-0.0, 6.0]]

    def test_negative_zero_and_zero_are_one_group(self):
        out = apply_grouped_reduce(self.FLOAT_BLOCK, self.first_column,
                                   vectorized(plain_sum))
        rows = apply_grouped_reduce([tuple(r) for r in self.FLOAT_BLOCK],
                                    lambda r: r[0], element_sum)
        assert out[:, 0].tolist() == [r[0] for r in rows] == [0.5, -0.0]
        assert np.signbit(out[1, 0])  # the first-seen spelling
        assert out[1, 1] == rows[1][1] == 6.0

    def test_nan_key_is_rejected(self):
        block = np.array([[np.nan, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="NaN key"):
            apply_grouped_reduce(block, self.first_column,
                                 vectorized(plain_sum))
        with pytest.raises(ValueError, match="NaN key"):
            group_plan(block[:, 0])

    def test_string_keys_group(self):
        words = np.array(["b", "a", "b", "c", "a"])
        plan = group_plan(words)
        assert words[plan.order[plan.starts]].tolist() == ["b", "a", "c"]
        assert plan.order.tolist() == [0, 2, 1, 4, 3]
        assert plan.starts.tolist() == [0, 2, 4]

    def test_row_list_is_lifted_to_a_block(self):
        rows = list(self.FLOAT_BLOCK)
        out = apply_grouped_reduce(rows, self.first_column,
                                   vectorized(plain_sum))
        assert out.tolist() == [[0.5, 4.0], [-0.0, 6.0]]

    def test_empty_payloads_group_to_nothing(self):
        for empty in ([], None, np.empty((0, 2))):
            assert real_len(apply_grouped_reduce(
                empty, self.first_column, vectorized(plain_sum))) == 0

    def test_rows_that_do_not_stack_name_the_contract(self):
        ragged = [(1, "a"), (2,)]
        with pytest.raises(TypeError, match="NumPy block"):
            apply_grouped_reduce(ragged, self.first_column,
                                 vectorized(plain_sum))

    def test_key_extractor_must_return_one_key_per_row(self):
        with pytest.raises(TypeError, match="1-D key column"):
            apply_grouped_reduce(self.FLOAT_BLOCK,
                                 vectorized(lambda rows: rows),
                                 vectorized(plain_sum))

    def test_float_keys_keep_a_hash_exchange_on_the_row_path(self):
        env = Environment()
        key_fn = vectorized(lambda rows: rows[..., 0])
        block = np.array([[0.5, 1.0], [2.5, 2.0], [0.5, 3.0], [2.5, 4.0]])
        producers = [Partition(0, block, 16.0, 1.0, "w0")]
        result = run_exchange(env, producers, 2, key_fn,
                              (key_fn, vectorized(plain_sum)))
        assert result.bytes_zero_copy == 0.0
        merged = [tuple(r) for p in result.inputs for r in p.elements]
        assert sorted(merged) == [(0.5, 4.0), (2.5, 6.0)]

    def test_block_only_key_extractor_routes_on_the_row_path(self):
        # ``rows[:, 0]`` cannot index one row: the row fallback (float keys)
        # must hand a vectorized extractor the producer's block, as every
        # other caller does.
        block = np.array([[0.5, 1.0], [2.5, 2.0], [0.5, 3.0], [2.5, 4.0]])
        producers = [Partition(0, block, 16.0, 1.0, "w0")]
        result = run_exchange(Environment(), producers, 2, self.first_column,
                              (self.first_column, vectorized(plain_sum)))
        assert result.bytes_zero_copy == 0.0
        merged = [tuple(r) for p in result.inputs for r in p.elements]
        assert sorted(merged) == [(0.5, 4.0), (2.5, 6.0)]

    def test_equal_keys_of_mixed_scalar_type_share_a_bucket(self):
        for q in range(1, 33):
            assert hash_bucket(np.float64(0.5), q) == hash_bucket(0.5, q)
            assert hash_bucket(np.int64(-3), q) == hash_bucket(-3, q)
            assert hash_bucket(np.str_("a"), q) == hash_bucket("a", q)
            assert hash_bucket(-0.0, q) == hash_bucket(0.0, q)
        # Two producers spell one key differently; at parallelism 7 the
        # spellings used to land on different consumers, one row each.
        data = [(np.float64(0.5), 1.0), (0.5, 2.0)]
        result = FlinkSession(make_cluster()).from_collection(
            data, element_nbytes=16.0, parallelism=2) \
            .group_by(lambda kv: kv[0]) \
            .reduce(lambda a, b: (a[0], a[1] + b[1]), parallelism=7) \
            .collect()
        assert result.value == [(0.5, 3.0)]


# -- exchanges ---------------------------------------------------------------

def run_exchange(env, producers, q, key_fn, combiner, only_consumers=None):
    exchange = make_exchange(
        env, ShipStrategy.HASH, producers, q, key_fn=key_fn,
        combiner=combiner, only_consumers=only_consumers)
    return run(env, exchange)


def element_key(kv):
    return kv[0]


def element_sum(a, b):
    return (a[0], a[1] + b[1])


def exchange_variants(partitions, q, structured, only_consumers=None):
    """One HASH exchange with a pre-combiner, four ways.

    ``fused`` combines before it routes (the combiner is keyed on the
    routing key *object*); ``routed`` gets an equal but distinct key
    function, which keeps the blocks on route-then-combine — the
    reference the fused path must match to the last simulated second;
    ``rows`` ships the same rows as list payloads, which is what selects
    the per-row price list; ``elements`` ships the ``(k, v)`` tuples
    themselves under an element-wise pair keyed on the routing key, which
    routes, then combines each bucket.
    """
    key_fn, reduce_fn = udfs(structured)
    key, reducer = vectorized(key_fn), vectorized(reduce_fn)
    twin = vectorized(lambda rows: key_fn(rows))
    runs = {}
    for name, combiner_key, columnar in (("fused", key, True),
                                         ("routed", twin, True),
                                         ("rows", key, False)):
        env = Environment()
        blocks = [make_block(pairs, structured) if pairs else []
                  for pairs in partitions]
        producers = [
            Partition(i, block if columnar else list(block),
                      16.0, 3.0, WORKERS[i % len(WORKERS)])
            for i, block in enumerate(blocks)]
        result = run_exchange(env, producers, q, key, (combiner_key, reducer),
                              only_consumers)
        runs[name] = (env.now, result)
    env = Environment()
    producers = [Partition(i, list(pairs), 16.0, 3.0,
                           WORKERS[i % len(WORKERS)])
                 for i, pairs in enumerate(partitions)]
    runs["elements"] = (env.now, run_exchange(
        env, producers, q, element_key, (element_key, element_sum),
        only_consumers))
    return runs


def expected_consumer_rows(partitions, q):
    """Per consumer: each producer's bucket combined on the element path."""
    out = [[] for _ in range(q)]
    for pairs in partitions:
        for j in range(q):
            out[j].extend(element_path(
                [kv for kv in pairs if hash_bucket(kv[0], q) == j]))
    return out


partitions_st = st.lists(pairs_st, min_size=1, max_size=5)


class TestCombineBeforeRoute:
    @given(partitions=partitions_st, q=st.integers(1, 64),
           structured=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_fused_equals_route_then_combine_and_row_path(
            self, partitions, q, structured):
        runs = exchange_variants(partitions, q, structured)
        expected = expected_consumer_rows(partitions, q)
        for name, (_, result) in runs.items():
            for j, part in enumerate(result.inputs):
                assert same_bits(part.elements, expected[j], structured), name
        (now, fused), (routed_now, routed), (_, rows), (_, elements) = (
            runs["fused"], runs["routed"], runs["rows"], runs["elements"])
        # Same wire format: not a simulated second apart.
        assert now == routed_now
        assert fused.bytes_zero_copy == routed.bytes_zero_copy
        if any(partitions):
            assert fused.bytes_zero_copy > 0
            assert rows.bytes_zero_copy == elements.bytes_zero_copy == 0
        for other in (routed, rows, elements):
            assert fused.bytes_shuffled == other.bytes_shuffled
            assert ([p.nominal_count for p in fused.inputs]
                    == [p.nominal_count for p in other.inputs])

    @given(partitions=partitions_st, q=st.integers(2, 16),
           structured=st.booleans(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_only_consumers_restricts_the_fused_path_identically(
            self, partitions, q, structured, data):
        only = data.draw(st.sets(st.integers(0, q - 1), max_size=q))
        full = exchange_variants(partitions, q, structured)["fused"][1]
        runs = exchange_variants(partitions, q, structured, only)
        (now, fused), (routed_now, routed) = runs["fused"], runs["routed"]
        assert now == routed_now
        for other in (routed, runs["rows"][1], runs["elements"][1]):
            assert fused.bytes_shuffled == other.bytes_shuffled
        assert fused.bytes_shuffled <= full.bytes_shuffled
        for j in range(q):
            if j not in only:
                assert all(r.inputs[j] is None for _, r in runs.values())
                continue
            # Bytes, not values_equal: inf + -inf sums to a NaN.
            assert (np.asarray(fused.inputs[j].elements).tobytes()
                    == np.asarray(full.inputs[j].elements).tobytes())
            assert (fused.inputs[j].nominal_count
                    == full.inputs[j].nominal_count
                    == routed.inputs[j].nominal_count)


class TestOneCallPerBlock:
    """The perf property, without a wall clock: UDF calls per exchange."""

    @staticmethod
    def counting_udfs():
        calls = {"key": 0, "reduce": 0}

        def key_fn(rows):
            calls["key"] += 1
            return plain_key(rows)

        def reduce_fn(block, starts):
            calls["reduce"] += 1
            return plain_sum(block, starts)

        return calls, vectorized(key_fn), vectorized(reduce_fn)

    def test_exchange_calls_udfs_once_per_nonempty_producer(self):
        calls, key_fn, reduce_fn = self.counting_udfs()
        rng = np.random.default_rng(5)
        blocks = [np.stack([rng.integers(0, 500, 300).astype(np.float64),
                            rng.random(300)], axis=1) for _ in range(4)]
        producers = [Partition(i, b, 16.0, 1.0, WORKERS[i % 2])
                     for i, b in enumerate(blocks)]
        producers.append(Partition(4, [], 16.0, 1.0, "w0"))  # emitted nothing
        result = run_exchange(Environment(), producers, 40, key_fn,
                              (key_fn, reduce_fn))
        assert result.bytes_zero_copy > 0
        # 4 blocks — not 4 x 40 buckets, not ~1100 groups.
        assert calls == {"key": 4, "reduce": 4}
        # The row fallback (float keys) extracts per block too, not per row.
        float_calls = []
        float_key = vectorized(
            lambda rows: float_calls.append(len(rows)) or rows[:, 0])
        result = run_exchange(Environment(), producers, 40, float_key, None)
        assert result.bytes_zero_copy == 0.0
        assert float_calls == [300] * 4

    def test_keyed_reduce_job_calls_udfs_once_per_partition(self):
        calls, key_fn, reduce_fn = self.counting_udfs()
        session = FlinkSession(make_cluster())
        p = session.cluster.default_parallelism
        rows = np.stack([np.arange(400) % 97, np.ones(400)],
                        axis=1).astype(np.float64)
        result = session.from_collection(rows, element_nbytes=16.0) \
            .group_by(key_fn).reduce(reduce_fn).collect()
        assert sorted(tuple(r) for r in result.value) == [
            (float(k), float(len(range(k, 400, 97)))) for k in range(97)]
        # One pre-combine per producer partition in the exchange, one
        # final reduce per consumer subtask (97 keys fill all of them).
        assert calls == {"key": 2 * p, "reduce": 2 * p}
