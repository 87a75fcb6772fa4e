"""Reduce on insert, held to the reference's keyed reduce.

An element ``(key_fn, reduce_fn)`` pair is aggregated in one pass by
:func:`repro.flink.iterators.fold_by_key` — per bucket on the producer
side of the exchange (``Exchange._buckets`` routes each row, then
``Exchange._combine`` folds each bucket) and on the consumer side
(``apply_grouped_reduce``).  The oracle is what a keyed
reduce *means* (:mod:`tests.reference.interp`): every key's rows, keys in
first-seen order, folded left to right — here per bucket, a bucket being
the rows :func:`~repro.flink.shuffle.hash_bucket` routes there.

Per bucket the exchange must return the same rows in the same order, and
the *same objects* for one-row groups; ``key_fn`` must run twice per row
(once to route it, once to fold it in its bucket) and ``reduce_fn`` see the
same calls (the same operands, every key's in the same order — only the
interleaving across keys may differ).  Axes: a key zoo (``int``, ``bool``,
``float`` with ``-0.0`` and integral floats, NumPy scalars, ``str``,
tuples, and mixtures that are one dict key), q in {1, 2, 7, 40}, row lists
and blocks, empty and one-row payloads, and reducers that reveal the order
they were applied in.

The last class is the wall-clock-free guard in the style of
``TestEventBudget``: rows, groups and UDF calls per keyed pass of a small
PageRank job, pinned.
"""

import contextlib
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.flink import iterators
from repro.flink.iterators import (apply_grouped_reduce, fold_by_key,
                                   vectorized)
from repro.flink.partition import Partition
from repro.flink.payload import real_len
from repro.flink.plan import ShipStrategy
from repro.flink.shuffle import Exchange, hash_bucket
from tests.flink.conftest import depth, make_payload
from tests.flink.test_exchange_differential import block_sum, first_column
from tests.reference.interp import fold, group, value


def reference_buckets(rows, key_fn, reduce_fn, q):
    """The reference's keyed reduce of each bucket's rows."""
    buckets = [[] for _ in range(q)]
    for x in rows:
        buckets[hash_bucket(key_fn(x), q)].append(x)
    return [[fold(members, reduce_fn)
             for members in group(bucket, key_fn).values()]
            for bucket in buckets]


def reference_reduce(payload, key_fn, reduce_fn):
    """The reference's keyed reduce of one payload."""
    return [fold(members, reduce_fn)
            for members in group(list(payload), key_fn).values()]


def exchange_buckets(rows, key_fn, reduce_fn, q):
    """One producer's buckets under an element pair combiner keyed on the
    routing key: what a HASH exchange's producer side ships."""
    exchange = Exchange(None, None, None, ShipStrategy.HASH, [], q,
                        ["w0"] * q, key_fn=key_fn,
                        combiner=(key_fn, reduce_fn))
    return exchange._buckets(Partition(0, rows, 16.0, 1.0, "w0"), None)

# -- the key zoo -----------------------------------------------------------------
# Rows carry a small int in field 0; a family maps it to a key.

ONE = [1, 1.0, True, np.int64(1), np.float64(1.0), np.bool_(True)]

KEYS = {
    "int": lambda i: i - 4,
    "beyond_int64": lambda i: 2**64 + i,
    "bool": lambda i: i % 2 == 0,
    "float": lambda i: i + 0.5,
    "integral_float": lambda i: float(i - 4),
    "signed_zero": lambda i: -0.0 if i % 2 else 0.0,
    "numpy_int": lambda i: np.int64(i - 4),
    "numpy_float": lambda i: np.float64(i) / 2,
    "numpy_bool": lambda i: np.bool_(i % 2),
    "str": lambda i: f"key-{i}",
    "tuple": lambda i: (i % 3, str(i)),
    # One dict key, one bucket since the integral-float fix ...
    "int_or_float": lambda i: i // 2 if i % 2 else float(i // 2),
    "spellings_of_one": lambda i: ONE[i % len(ONE)] if i < 9 else i,
    # ... and one dict key that still routes to two (hashed over the repr):
    # what a bucket remembered per key would merge.
    "int_or_float_tuple":
        lambda i: (i // 2 if i % 2 else float(i // 2), "t"),
    "mixed": lambda i: [i, float(i), str(i), (i,), i % 2 == 0,
                        np.int64(i)][i % 6],
}


# -- reducers that reveal the order they were applied in -------------------------

REDUCERS = {
    "concat": lambda a, b: (a[0], f"{a[1]}|{b[1]}"),
    "append": lambda a, b: tuple(a) + (b[1],),
    "first": lambda a, b: a,
    "last": lambda a, b: b,
    # Float + does not associate: any other fold order shows in the bits.
    "float_sum": lambda a, b: (a[0], a[1] + b[1]),
}

#: Magnitudes 1e-16 .. 1e16, so every partial sum rounds.
VALUES = [10.0 ** e * m for e in range(-16, 17, 4) for m in (1.0, -3.0, 7.0)]


def fingerprint(row):
    """Bit-exact identity of a row's value and type (``repr`` of a float is
    its shortest round-trip spelling, signed zero included)."""
    if isinstance(row, (np.ndarray, np.void)):
        return (type(row).__name__, str(row.dtype), row.tobytes())
    return repr(row)


class Counting:
    """A ``(key_fn, reduce_fn)`` pair that records how it was called."""

    def __init__(self, to_key, reduce_fn):
        self.key_calls = 0
        self.reduce_calls = Counter()
        self._to_key, self._reduce_fn = to_key, reduce_fn

    def key_fn(self, row):
        self.key_calls += 1
        return self._to_key(int(row[0]))

    def reduce_fn(self, a, b):
        self.reduce_calls[fingerprint(a), fingerprint(b)] += 1
        return self._reduce_fn(a, b)


def disagreement(fold_fn, case):
    """Why ``fold_fn`` differs from the reference on ``case`` — ``None``
    when it does not."""
    kind, pairs, key, reducer, q = case
    rows = make_payload(kind, pairs)
    new, old = (Counting(KEYS[key], REDUCERS[reducer]) for _ in range(2))
    got = fold_fn(rows, new.key_fn, new.reduce_fn, q)
    want = reference_buckets(rows, old.key_fn, old.reduce_fn, q)
    if len(got) != q:
        return f"{len(got)} buckets for q={q}"
    inputs = {id(row) for row in rows} if kind == "list" else set()
    for j, (g, w) in enumerate(zip(got, want)):
        if list(map(fingerprint, g)) != list(map(fingerprint, w)):
            return f"bucket {j}: {g!r} != {w!r}"
        for a, b in zip(g, w):
            # A row the oracle passed through untouched (a one-row group,
            # or what a pick-one reducer returned) is the very same object.
            if id(b) in inputs and a is not b:
                return f"bucket {j}: {a!r} is a copy"
    if new.key_calls != 2 * real_len(rows):
        return f"key_fn ran {new.key_calls}x over {real_len(rows)} rows"
    if new.reduce_calls != old.reduce_calls:
        return "reduce_fn saw different calls"
    groups = sum(map(len, want))
    if sum(new.reduce_calls.values()) != real_len(rows) - groups:
        return "reduce_fn calls != rows - groups"
    return None


def swept_cases(key):
    pairs = [((7 * i + i // 3) % 12, VALUES[i % len(VALUES)])
             for i in range(36)]
    cases = [("list", pairs, key, reducer, q)
             for reducer in REDUCERS for q in (1, 2, 7, 40)]
    cases += [(kind, pairs, key, reducer, 7)
              for kind in ("2d", "struct") for reducer in REDUCERS]
    cases += [(kind, pairs[:n], key, "float_sum", q)
              for kind in ("list", "2d", "struct") for n in (0, 1)
              for q in (1, 7)]
    return cases


def case_id(case):
    kind, pairs, key, reducer, q = case
    return f"{kind}[{len(pairs)}]-{key}-{reducer}-q{q}"


@pytest.mark.parametrize("key", sorted(KEYS))
def test_swept_cases_match_group_then_fold(key):
    for case in swept_cases(key):
        assert disagreement(exchange_buckets, case) is None, case_id(case)


generated_cases = st.tuples(
    st.sampled_from(["list", "2d", "struct"]),
    st.lists(st.tuples(st.integers(0, 11), st.sampled_from(VALUES)),
             max_size=40),
    st.sampled_from(sorted(KEYS)), st.sampled_from(sorted(REDUCERS)),
    st.sampled_from([1, 2, 7, 40]))


@depth(tier1=100, full=2500)
@given(generated_cases)
def test_generated_case_matches_group_then_fold(case):
    assert disagreement(exchange_buckets, case) is None


# -- the sweep must be able to fail ----------------------------------------------
# Each mutant routes and then folds each bucket, as the exchange does, and
# gets one step wrong.

def _route(rows, key_fn, q):
    buckets = [[] for _ in range(q)]
    for x in rows:
        buckets[hash_bucket(key_fn(x), q)].append(x)
    return buckets


def _memoised_bucket(rows, key_fn, reduce_fn, q):
    """Asks the route once per *key*: keys that are one dict key but hash
    apart end up in one bucket."""
    buckets, bucket = [[] for _ in range(q)], {}
    for x in rows:
        key = key_fn(x)
        if key not in bucket:
            bucket[key] = hash_bucket(key, q)
        buckets[bucket[key]].append(x)
    return [fold_by_key(b, key_fn, reduce_fn) for b in buckets]


def _right_to_left(rows, key_fn, reduce_fn, q):
    tables = [{} for _ in range(q)]
    for table, bucket in zip(tables, _route(rows, key_fn, q)):
        for x in bucket:
            key = key_fn(x)
            table[key] = reduce_fn(x, table[key]) if key in table else x
    return [list(table.values()) for table in tables]


def _last_seen_order(rows, key_fn, reduce_fn, q):
    tables = [{} for _ in range(q)]
    for table, bucket in zip(tables, _route(rows, key_fn, q)):
        for x in bucket:
            key = key_fn(x)
            table[key] = (reduce_fn(table.pop(key), x) if key in table
                          else x)
    return [list(table.values()) for table in tables]


@pytest.mark.parametrize(
    "mutant", [_memoised_bucket, _right_to_left, _last_seen_order],
    ids=lambda f: f.__name__.strip("_"))
def test_the_sweep_catches_each_mutant(mutant):
    failing = [case_id(case) for key in KEYS for case in swept_cases(key)
               if disagreement(mutant, case) is not None]
    assert failing
    if mutant is _memoised_bucket:
        # Only a key whose equal spellings still hash apart shows it.
        assert any("int_or_float_tuple" in name for name in failing)


# -- errors surface as they did --------------------------------------------------

class TestErrorsSurface:
    def test_unhashable_key_raises_type_error(self):
        for fold_fn in (fold_by_key, reference_reduce):
            with pytest.raises(TypeError, match="unhashable"):
                fold_fn([(1, 2.0)], lambda row: [row[0]], REDUCERS["first"])

    def test_udf_exceptions_propagate(self):
        def bad_key(row):
            raise KeyError("key_fn")

        def bad_reduce(a, b):
            raise ZeroDivisionError("reduce_fn")

        rows = [(1, 2.0), (1, 3.0)]
        with pytest.raises(KeyError, match="key_fn"):
            fold_by_key(rows, bad_key, REDUCERS["first"])
        with pytest.raises(ZeroDivisionError, match="reduce_fn"):
            fold_by_key(rows, lambda row: row[0], bad_reduce)

    def test_a_generator_of_rows_is_walked_once(self):
        rows = ((i % 3, float(i)) for i in range(9))
        assert fold_by_key(rows, lambda row: row[0],
                           REDUCERS["float_sum"]) == [
            (0, 9.0), (1, 12.0), (2, 15.0)]


# -- apply_grouped_reduce: both pair kinds against the reference -----------------

PAIRS = {
    "element+element": (lambda row: int(row[0]) // 2, REDUCERS["float_sum"]),
    "element+first": (lambda row: int(row[0]) // 2, REDUCERS["first"]),
    "vectorized+vectorized": (
        vectorized(lambda block: first_column(block).astype(np.int64) // 2),
        block_sum),
}


def assert_same_rows(got, want):
    """The same rows in the same order, each as the values it holds (a
    lifted row list comes back a block)."""
    assert list(map(value, got)) == list(map(value, want))


@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("kind", ["list", "2d", "struct"])
@pytest.mark.parametrize("n", [0, 1, 30])
def test_apply_grouped_reduce_matches_group_then_fold(pair, kind, n):
    key_fn, reduce_fn = PAIRS[pair]
    pairs = [((5 * i) % 11, VALUES[i % len(VALUES)]) for i in range(n)]
    assert_same_rows(
        apply_grouped_reduce(make_payload(kind, pairs), key_fn, reduce_fn),
        reference_reduce(make_payload(kind, pairs), key_fn, reduce_fn))


def test_apply_grouped_reduce_normalises_a_missing_payload():
    key_fn, reduce_fn = PAIRS["element+element"]
    assert apply_grouped_reduce(None, key_fn, reduce_fn) == []
    empty = []
    assert apply_grouped_reduce(empty, key_fn, reduce_fn) is empty


@depth(tier1=100, full=2000)
@given(st.sampled_from(["list", "2d", "struct"]),
       st.lists(st.tuples(st.integers(0, 11), st.sampled_from(VALUES)),
                max_size=40),
       st.sampled_from(sorted(KEYS)), st.sampled_from(sorted(REDUCERS)))
def test_generated_element_pair_matches_group_then_fold(kind, pairs, key,
                                                        reducer):
    to_key = KEYS[key]
    key_fn = lambda row: to_key(int(row[0]))
    assert_same_rows(
        apply_grouped_reduce(make_payload(kind, pairs), key_fn,
                             REDUCERS[reducer]),
        reference_reduce(make_payload(kind, pairs), key_fn,
                         REDUCERS[reducer]))


# -- rows per keyed pass ---------------------------------------------------------

class TestRowsPerKeyedPass:
    """What a keyed pass costs the host, counted instead of timed.

    The 3 x 2-slot, 4-iteration PageRank-CPU job of ``TestEventBudget``:
    every iteration runs six producer-side passes (``Exchange._buckets``)
    and six consumer-side ones (``apply_grouped_reduce``).  Until PR 23 all
    48 went through ``fold_by_key`` — ``key_fn`` once per row entering a
    pass (7 568), ``reduce_fn`` rows - groups times (2 052).  The keyed
    stage is now ``field(0)`` / ``field_sum(1)``, which answer for a whole
    block: the same 48 passes take the same rows in and give the same
    groups out, but each asks the key and the reducer **once**, and neither
    is ever called with a row.  ``fold_by_key`` stays the one path for
    opaque element pairs — and PageRank, WordCount and ConnectedComponents
    never enter it, marked or not, on CPUs or GPUs.  If a later change
    brings back a per-row walk of these stages, this fails in tier-1
    rather than in the benchmark.
    """

    #: Over the whole job: keyed passes, rows in, groups out, and the two
    #: built-ins' calls (one each per pass).
    PINNED = {"passes": 48, "rows": 7568, "groups": 5516,
              "key_fn": 48, "reduce_fn": 48}

    @staticmethod
    def _no_row_walk():
        def entered(*args, **kw):
            raise AssertionError("a built-in keyed stage walked rows")

        return [mock.patch("repro.flink.iterators.fold_by_key", entered),
                mock.patch("repro.flink.iterators.apply_reduce", entered),
                mock.patch("repro.flink.plan.apply_reduce", entered),
                mock.patch.object(iterators.field, "__call__", entered),
                mock.patch.object(iterators._FieldFold, "__call__", entered)]

    def test_pagerank_cpu_job_udf_calls_per_row(self):
        from repro.core import GFlinkCluster, GFlinkSession
        from repro.flink import ClusterConfig, CPUSpec
        from repro.workloads import PageRankWorkload

        seen = Counter()
        column, reduce = iterators.field.column, iterators._FieldFold.reduce

        def counting_column(self, block):
            seen["key_fn"] += 1
            return column(self, block)

        def counting_reduce(self, block, starts):
            seen["reduce_fn"] += 1
            seen["passes"] += 1
            seen["rows"] += len(block)
            seen["groups"] += len(starts)
            return reduce(self, block, starts)

        cluster = GFlinkCluster(ClusterConfig(n_workers=3,
                                              cpu=CPUSpec(cores=2)))
        workload = PageRankWorkload(nominal_pages=1e5, real_pages=600,
                                    iterations=4, seed=20160816)
        with contextlib.ExitStack() as stack:
            for patch in self._no_row_walk():
                stack.enter_context(patch)
            stack.enter_context(mock.patch.object(
                iterators.field, "column", counting_column))
            stack.enter_context(mock.patch.object(
                iterators._FieldFold, "reduce", counting_reduce))
            workload.run(GFlinkSession(cluster), "cpu")
        assert {k: seen[k] for k in self.PINNED} == self.PINNED

    @pytest.mark.parametrize("vectorized", [False, True],
                             ids=["unmarked", "marked"])
    @pytest.mark.parametrize("mode", ["cpu", "gpu"])
    def test_no_shuffle_workload_enters_fold_by_key(self, mode, vectorized):
        from repro.core import GFlinkSession
        from repro.workloads import (ConnectedComponentsWorkload,
                                     PageRankWorkload, WordCountWorkload)
        from tests.workloads.conftest import small_cluster

        with contextlib.ExitStack() as stack:
            for patch in self._no_row_walk():
                stack.enter_context(patch)
            for workload in (
                    PageRankWorkload(nominal_pages=1e5, real_pages=300,
                                     iterations=2, vectorized=vectorized),
                    ConnectedComponentsWorkload(
                        nominal_pages=1e5, real_pages=300, iterations=2,
                        vectorized=vectorized),
                    WordCountWorkload(nominal_elements=1e4,
                                      real_elements=3000,
                                      vectorized=vectorized)):
                workload.run(GFlinkSession(small_cluster()), mode)
