"""Positional keys and built-in aggregates, held to the lambdas they replace.

``field(i)`` and ``field_sum(j)`` / ``field_min(j)`` / ``field_max(j)``
(``group_by(0).reduce(field_sum(1))``) are element UDFs when called with
rows and answer once for a whole block when handed one.  The oracle is
always the element world: :func:`fold_by_key` over the *tuples of Python
scalars a payload holds*, with ``lambda r: r[0]`` and ``lambda a, b: (a[0], a[1] + b[1])``.
Whatever host path the built-ins take — row call, block call, lifted row
list — they must emit the same rows in the same order with the same bits,
and, marked or not, cost what the equivalent lambdas cost: same buckets,
same ``Serializer`` calls and byte counters, same clock.

Axes: row list / 2-D block / GStruct block x q in {1, 2, 7, 40} x marked /
unmarked x 0 / 1 / 36 rows x a key zoo (ints beyond int32, bool, integral
float, signed zero, non-integral float, NumPy scalars — each where a column
of that format can hold it) x values whose magnitudes (1e-16 .. 1e16) make
every other fold order show in the bits.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common import Environment
from repro.common.network import Network, NetworkConfig
from repro.flink import FlinkSession
from repro.flink.iterators import (apply_grouped_reduce, field, field_max,
                                   field_min, field_sum, fold_by_key,
                                   vectorized)
from repro.flink.partition import Partition
from repro.flink.payload import block_of, segment_fold, to_tuples
from repro.flink.plan import ShipStrategy
from repro.flink.serialization import Serializer
from repro.flink.shuffle import Exchange, hash_bucket
from tests.flink.conftest import depth, make_cluster
from tests.flink.test_exchange_differential import block_sum, first_column
from tests.flink.test_keyed_fold_differential import VALUES

WORKERS = ["w0", "w1"]

# -- the key zoo -----------------------------------------------------------------
# family -> (key of small int i, dtype of the key field of a GStruct block or
# None when no column holds the family, True if a float64 2-D block holds it).

ZOO = {
    "int": (lambda i: i - 4, np.int64, True),
    "beyond_int32": (lambda i: 2**40 + i, np.int64, True),
    "bool": (lambda i: i % 2 == 0, np.bool_, False),
    "integral_float": (lambda i: float(i - 4), np.float64, True),
    "signed_zero": (lambda i: -0.0 if i % 2 else 0.0, np.float64, True),
    "float": (lambda i: i + 0.5, np.float64, True),
    "float32": (lambda i: float(i) / 4, np.float32, False),
    "numpy_int": (lambda i: np.int64(i - 4), None, False),
    "numpy_float": (lambda i: np.float64(i) / 2, None, False),
}

KINDS = ["list", "2d", "struct"]


def holds(kind, family):
    _, dtype, in_2d = ZOO[family]
    return kind == "list" or (in_2d if kind == "2d" else dtype is not None)


def make(kind, family, pairs):
    """``pairs`` of (small int, value) as a payload keyed by ``family``."""
    to_key, dtype, _ = ZOO[family]
    rows = [(to_key(i), v) for i, v in pairs]
    if kind == "list":
        return rows
    if kind == "2d":
        return np.array(rows, dtype=np.float64).reshape(len(rows), 2)
    return np.array(rows, dtype=[("k", dtype), ("v", np.float64)])


PAIRS36 = [((7 * i + i // 3) % 12, VALUES[i % len(VALUES)])
           for i in range(36)]

#: name -> (built-in reducer, the lambda it replaces)
REDUCERS = {
    "sum": (field_sum(1), lambda a, b: (a[0], a[1] + b[1])),
    "min": (field_min(1), lambda a, b: (a[0], min(a[1], b[1]))),
    "max": (field_max(1), lambda a, b: (a[0], max(a[1], b[1]))),
}


def key_lambda(row):
    return row[0]


def scalars(rows):
    """Emitted rows as tuples of Python scalars (a NumPy scalar's value and
    width survive ``item()``; ``repr`` then tells ``2`` from ``2.0`` and
    ``-0.0`` from ``0.0``)."""
    rows = to_tuples(rows)
    return [tuple(x.item() if isinstance(x, np.generic) else x for x in row)
            for row in rows]


def element_world(payload, lift):
    """The rows the oracle walks: what ``payload`` holds, as tuples — of the
    block a ``vectorized()`` pair has a row list lifted to, when ``lift``."""
    block = block_of(payload, lift)
    return payload if block is None else to_tuples(block)


# -- row call: an ordinary element pair ------------------------------------------

class TestRowCall:
    def test_field_is_getitem_and_the_reducer_never_modifies_a(self):
        row = (3, 0.5)
        assert field(0)(row) == 3 and field(1)(row) == 0.5
        folded = field_sum(1)(row, (9, 0.25))
        assert folded == (3, 0.75) and row == (3, 0.5)
        assert field_min(0)((3, 1), (2, 7)) == (2, 1)
        assert field_max(2)((1, 2, 3), (0, 0, 9)) == (1, 2, 9)
        for block in (np.array([[3.0, 0.5], [3.0, 0.25]]),
                      make("struct", "int", [(7, 0.5), (7, 0.25)])):
            before = block.copy()
            out = field_sum(1)(block[0], block[1])
            assert out[1] == 0.75 and type(out) is type(block[0])
            assert block.tobytes() == before.tobytes()

    @pytest.mark.parametrize("bad", [-1, 1.0, "0", None])
    def test_a_position_is_a_non_negative_int(self, bad):
        for make_udf in (field, field_sum, field_min, field_max):
            with pytest.raises(ValueError, match="field position"):
                make_udf(bad)

    @pytest.mark.parametrize("family", sorted(ZOO))
    @pytest.mark.parametrize("reducer", sorted(REDUCERS))
    def test_fold_by_key_with_builtins_is_fold_by_key_with_lambdas(
            self, family, reducer):
        builtin, replaced = REDUCERS[reducer]
        for kind in KINDS:
            if not holds(kind, family):
                continue
            rows = make(kind, family, PAIRS36)
            got = fold_by_key(rows, field(0), builtin)
            want = fold_by_key(rows, key_lambda, replaced)
            assert repr(scalars(got)) == repr(scalars(want)), kind
            if kind == "list":  # tuples in, the very same tuples out
                assert repr(got) == repr(want)


# -- block call: apply_grouped_reduce --------------------------------------------

def mark(marked, *udfs):
    return tuple(vectorized(udf) for udf in udfs) if marked else udfs


def grouped_disagreement(kind, family, pairs, reducer, marked):
    make_builtin = {"sum": field_sum, "min": field_min, "max": field_max}
    key_fn, reduce_fn = mark(marked, field(0), make_builtin[reducer](1))
    payload = make(kind, family, pairs)
    got = apply_grouped_reduce(payload, key_fn, reduce_fn)
    want = fold_by_key(element_world(payload, marked), key_lambda,
                       REDUCERS[reducer][1])
    if block_of(payload, marked) is not None and pairs \
            and not isinstance(got, np.ndarray):
        return "a block went in and rows came out"
    if repr(scalars(got)) != repr(scalars(want)):
        return f"{scalars(got)!r} != {scalars(want)!r}"
    return None


@pytest.mark.parametrize("family", sorted(ZOO))
@pytest.mark.parametrize("marked", [False, True], ids=["unmarked", "marked"])
def test_swept_grouped_reduce_matches_the_element_fold(family, marked):
    for kind in KINDS:
        if not holds(kind, family):
            continue
        if marked and kind == "list" and ZOO[family][1] is None:
            continue  # NumPy scalars in tuples: lifted like their values
        for reducer in REDUCERS:
            for n in (0, 1, 36):
                assert grouped_disagreement(
                    kind, family, PAIRS36[:n], reducer, marked) is None, \
                    (kind, reducer, n)


def test_a_missing_or_empty_payload_is_normalised_as_for_any_pair():
    key_fn, reduce_fn = field(0), field_sum(1)
    assert apply_grouped_reduce(None, key_fn, reduce_fn) == []
    empty = np.empty((0, 2))
    assert apply_grouped_reduce(empty, key_fn, reduce_fn) is empty


def test_a_nan_key_is_rejected_on_a_block():
    block = np.array([[1.0, 2.0], [np.nan, 3.0]])
    for marked in (False, True):
        with pytest.raises(ValueError, match="NaN key"):
            apply_grouped_reduce(block, *mark(marked, field(0), field_sum(1)))


def test_a_1d_block_has_no_fields():
    with pytest.raises(TypeError, match="no fields"):
        apply_grouped_reduce(np.arange(4.0), field(0), field_sum(1))


def test_mixed_pairs_fall_back_to_the_row_call():
    rows = [(i % 3, float(i)) for i in range(9)]
    want = [(0, 9.0), (1, 12.0), (2, 15.0)]
    # an opaque key with a marked built-in reducer, and the other way round
    assert apply_grouped_reduce(rows, key_lambda,
                                vectorized(field_sum(1))) == want
    got = apply_grouped_reduce(rows, vectorized(field(0)),
                               REDUCERS["sum"][1])
    assert scalars(got) == want


def test_segment_fold_is_the_left_fold_of_any_ufunc():
    column = np.array(VALUES * 2)
    starts = np.array([0, 5, 6, 30])
    ends = list(starts[1:]) + [len(column)]
    for ufunc, fold in ((np.add, lambda a, b: a + b), (np.minimum, min),
                        (np.maximum, max)):
        want = []
        for lo, hi in zip(starts, ends):
            acc = column[lo].item()
            for x in column[lo + 1:hi].tolist():
                acc = fold(acc, x)
            want.append(acc)
        assert segment_fold(ufunc, column, starts).tolist() == want


@depth(tier1=100, full=2500)
@given(st.sampled_from(KINDS), st.sampled_from(sorted(ZOO)),
       st.lists(st.tuples(st.integers(0, 11), st.sampled_from(VALUES)),
                max_size=40),
       st.sampled_from(sorted(REDUCERS)), st.booleans())
def test_generated_grouped_reduce_matches_the_element_fold(
        kind, family, pairs, reducer, marked):
    if not holds(kind, family) or (
            marked and kind == "list" and ZOO[family][1] is None):
        return
    assert grouped_disagreement(kind, family, pairs, reducer, marked) is None


# -- a routed exchange: same buckets, same price ---------------------------------

def integer_keys(column):
    """``hash_bucket``'s rule, key by key: ints, and floats that equal one."""
    return column.dtype.kind in "iu" or (
        column.dtype.kind == "f"
        and all(key.is_integer() for key in column.tolist()))


@vectorized
def column_oracle(block):
    """The marked lambda a marked ``field(0)`` stands for: a float column
    whose values are all integral is keyed by the ints they equal."""
    column = first_column(block)
    return column.astype(np.int64) if integer_keys(column) else column


def run_exchange(payloads, q, key_fn, reduce_fn, combine=True):
    env = Environment()
    net = Network(env, WORKERS, NetworkConfig(latency_s=0.0))
    producers = [Partition(i, payload, 16.0, 3.0, WORKERS[i % 2])
                 for i, payload in enumerate(payloads)]
    exchange = Exchange(
        env, net, Serializer(1e9), ShipStrategy.HASH, producers, q,
        [WORKERS[(j + 1) % 2] for j in range(q)], key_fn=key_fn,
        combiner=(key_fn, reduce_fn) if combine else None)
    result = env.run(until=env.process(exchange.run()))
    return {
        "now": env.now, "shuffled": result.bytes_shuffled,
        "zero_copy": result.bytes_zero_copy,
        "serde": exchange.serializer.stats(),
        "inputs": [(part.index, part.worker, part.element_nbytes, part.scale,
                    part.nominal_count, repr(scalars(part.elements)))
                   for part in result.inputs],
    }, result.inputs


def exchange_disagreement(kind, family, parts, q, marked, combine=True):
    payloads = [make(kind, family, pairs) for pairs in parts]
    # The oracle's producers hold what the built-ins' hold: the price is
    # read off the payload, the lambdas walk its rows.
    oracle_pair = (column_oracle, block_sum) if marked \
        else (key_lambda, REDUCERS["sum"][1])
    got, inputs = run_exchange(payloads, q, *mark(marked, field(0),
                                                  field_sum(1)), combine)
    want, _ = run_exchange(payloads, q, *oracle_pair, combine)
    if got != want:
        return f"{got!r} != {want!r}"
    if kind != "list" and combine and not marked:
        # bound for a built-in pair: no row object was built
        if not all(isinstance(part.elements, np.ndarray)
                   for part in inputs if len(part.elements)):
            return "a consumer of a built-in pair was handed rows"
    return None


EXCHANGE_PARTS = [PAIRS36[:17], [], PAIRS36[17:]]


@pytest.mark.parametrize("family", sorted(ZOO))
@pytest.mark.parametrize("marked", [False, True], ids=["unmarked", "marked"])
def test_swept_exchange_routes_and_prices_like_the_lambdas(family, marked):
    priced_zero_copy = set()
    for kind in KINDS:
        if not holds(kind, family) or (marked and kind == "list"):
            continue  # a lifted row list: covered by the 2-D block it is
        for q in (1, 2, 7, 40):
            for combine in (True, False):
                assert exchange_disagreement(
                    kind, family, EXCHANGE_PARTS, q, marked, combine) \
                    is None, (kind, q, combine)
        out, _ = run_exchange([make(kind, family, p) for p in EXCHANGE_PARTS],
                              7, *mark(marked, field(0), field_sum(1)))
        priced_zero_copy.add(out["zero_copy"] > 0)
    # Only a marked pair on integer keys (integral floats included) ships
    # zero-copy; an unmarked one never does.
    assert priced_zero_copy <= {marked and family in (
        "int", "beyond_int32", "integral_float", "signed_zero")}


@depth(tier1=60, full=1500)
@given(st.sampled_from(["2d", "struct"]), st.sampled_from(sorted(ZOO)),
       st.lists(st.lists(st.tuples(st.integers(0, 11),
                                   st.sampled_from(VALUES)), max_size=25),
                min_size=1, max_size=4),
       st.sampled_from([1, 2, 7, 40]), st.booleans(), st.booleans())
def test_generated_exchange_routes_and_prices_like_the_lambdas(
        kind, family, parts, q, marked, combine):
    if not holds(kind, family):
        return
    assert exchange_disagreement(kind, family, parts, q, marked,
                                 combine) is None


# -- whole plans: same clock, same answer at any parallelism ---------------------

def collect(payload, key, reducer, parallelism=None):
    cluster = make_cluster(n_workers=2, cores=2)
    result = FlinkSession(cluster).from_collection(
        payload, element_nbytes=16.0, scale=50.0, parallelism=4) \
        .group_by(key).reduce(reducer, parallelism=parallelism).collect()
    return scalars(result.value), result.seconds, cluster.env.now


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("marked", [False, True], ids=["unmarked", "marked"])
def test_a_two_worker_collect_costs_what_the_lambdas_cost(kind, marked):
    if marked and kind == "list":
        pytest.skip("a marked pair lifts a row list: the 2-D case")
    payload = make(kind, "int", PAIRS36 * 3)
    oracle = (column_oracle, block_sum) if marked \
        else (key_lambda, REDUCERS["sum"][1])
    got = collect(payload, *mark(marked, field(0), field_sum(1)))
    want = collect(payload, *oracle)
    assert got[1:] == want[1:]                     # the clock
    assert repr(got[0]) == repr(want[0])           # rows, order, bits


@pytest.mark.parametrize("kind", KINDS)
def test_group_by_0_sum_1_collects_one_multiset_at_any_parallelism(kind):
    # Sums of small integers are exact in any fold order.
    pairs = [((5 * i + i // 4) % 13, float(i % 7)) for i in range(90)]
    totals = {}
    for i, v in pairs:
        totals[i - 4] = totals.get(i - 4, 0.0) + v
    for parallelism in (1, 2, 5):
        cluster = make_cluster(n_workers=2, cores=2)
        result = FlinkSession(cluster).from_collection(
            make(kind, "int", pairs), element_nbytes=16.0, parallelism=3) \
            .group_by(0).reduce(field_sum(1), parallelism=parallelism) \
            .collect()
        assert sorted(scalars(result.value)) == sorted(totals.items())


def test_min_and_max_shorthands():
    rows = [(i % 3, float((7 * i) % 10)) for i in range(12)]
    session = FlinkSession(make_cluster())
    low = session.from_collection(rows).group_by(0).reduce(field_min(1)) \
        .collect().value
    high = session.from_collection(rows).group_by(0).reduce(field_max(1)) \
        .collect().value
    for key in range(3):
        values = [v for k, v in rows if k == key]
        assert (key, min(values)) in low and (key, max(values)) in high
    assert len(low) == len(high) == 3
