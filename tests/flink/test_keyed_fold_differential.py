"""Reduce on insert, held to the group-then-fold compositions it replaced.

An element ``(key_fn, reduce_fn)`` pair is aggregated in one pass by
:func:`repro.flink.iterators.fold_by_key` — on the producer side of the
exchange (``Exchange._buckets``), on the consumer side
(``apply_grouped_reduce``) and in ``distinct``.  The compositions it
replaced — a table of member lists per bucket and a fold per list;
``group_elements`` and a fold per group; ``distinct``'s ``members[0]`` —
live on verbatim in ``tests/flink/retired.py`` and are the oracle here.

Per bucket the fold must return the same rows in the same order, and the
*same objects* for one-row groups; ``key_fn`` must run once per row and
``reduce_fn`` see the same calls (the same operands, every key's in the same
order — only the interleaving across keys may differ).  Axes: a key zoo
(``int``, ``bool``, ``float`` with ``-0.0`` and integral floats, NumPy
scalars, ``str``, tuples, and mixtures that are one dict key), q in
{1, 2, 7, 40}, two bucket functions, row lists and blocks, empty and
one-row payloads, and reducers that reveal the order they were applied in.

The last class is the wall-clock-free guard in the style of
``TestEventBudget``: rows, groups and UDF calls per keyed pass of a small
PageRank job, pinned.
"""

import contextlib
import zlib
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.flink import FlinkSession, iterators
from repro.flink.dataset import DataSet
from repro.flink.iterators import (apply_grouped_reduce, fold_by_key,
                                   vectorized)
from repro.flink.payload import real_len
from repro.flink.shuffle import hash_bucket
from tests.flink.conftest import depth, make_cluster, make_payload
from tests.flink.retired import (RetiredDistinctOp, grouped_reduce,
                                 routing_key_buckets)
from tests.flink.test_exchange_differential import block_sum, first_column

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


def by_repr(key, q):
    """A bucket function that tells apart every spelling of a key."""
    return zlib.crc32(repr(key).encode()) % q


BUCKETS = {"hash_bucket": hash_bucket, "by_repr": by_repr}

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


def disagreement(fold, case):
    """Why ``fold`` differs from the retired composition on ``case`` —
    ``None`` when it does not."""
    kind, pairs, key, reducer, q, bucket = case
    rows = make_payload(kind, pairs)
    new, old = (Counting(KEYS[key], REDUCERS[reducer]) for _ in range(2))
    got = fold(rows, new.key_fn, new.reduce_fn, q, BUCKETS[bucket])
    want = routing_key_buckets(rows, old.key_fn, old.reduce_fn, q,
                               BUCKETS[bucket])
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
    if new.key_calls != real_len(rows) or old.key_calls != real_len(rows):
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
    cases = [("list", pairs, key, reducer, q, "hash_bucket")
             for reducer in REDUCERS for q in (1, 2, 7, 40)]
    cases += [("list", pairs, key, "concat", q, "by_repr") for q in (2, 7)]
    cases += [(kind, pairs, key, reducer, 7, "hash_bucket")
              for kind in ("2d", "struct") for reducer in REDUCERS]
    cases += [(kind, pairs[:n], key, "float_sum", q, "hash_bucket")
              for kind in ("list", "2d", "struct") for n in (0, 1)
              for q in (1, 7)]
    return cases


def case_id(case):
    kind, pairs, key, reducer, q, bucket = case
    return f"{kind}[{len(pairs)}]-{key}-{reducer}-q{q}-{bucket}"


@pytest.mark.parametrize("key", sorted(KEYS))
def test_swept_cases_match_group_then_fold(key):
    for case in swept_cases(key):
        assert disagreement(fold_by_key, case) is None, case_id(case)


generated_cases = st.tuples(
    st.sampled_from(["list", "2d", "struct"]),
    st.lists(st.tuples(st.integers(0, 11), st.sampled_from(VALUES)),
             max_size=40),
    st.sampled_from(sorted(KEYS)), st.sampled_from(sorted(REDUCERS)),
    st.sampled_from([1, 2, 7, 40]), st.sampled_from(sorted(BUCKETS)))


@depth(tier1=100, full=2500)
@given(generated_cases)
def test_generated_case_matches_group_then_fold(case):
    assert disagreement(fold_by_key, case) is None


# -- the sweep must be able to fail ----------------------------------------------

def _memoised_bucket(rows, key_fn, reduce_fn, q=1, bucket_of=None):
    """Asks the bucket once per *key*: 2 and 2.0 end up in one."""
    tables, bucket = [{} for _ in range(q)], {}
    for x in rows:
        key = key_fn(x)
        if key not in bucket:
            bucket[key] = bucket_of(key, q)
        table = tables[bucket[key]]
        table[key] = reduce_fn(table[key], x) if key in table else x
    return [list(table.values()) for table in tables]


def _right_to_left(rows, key_fn, reduce_fn, q=1, bucket_of=None):
    tables = [{} for _ in range(q)]
    for x in rows:
        key = key_fn(x)
        table = tables[bucket_of(key, q)]
        table[key] = reduce_fn(x, table[key]) if key in table else x
    return [list(table.values()) for table in tables]


def _last_seen_order(rows, key_fn, reduce_fn, q=1, bucket_of=None):
    tables = [{} for _ in range(q)]
    for x in rows:
        key = key_fn(x)
        table = tables[bucket_of(key, q)]
        table[key] = reduce_fn(table.pop(key), x) if key in table else x
    return [list(table.values()) for table in tables]


@pytest.mark.parametrize(
    "mutant", [_memoised_bucket, _right_to_left, _last_seen_order],
    ids=lambda f: f.__name__.strip("_"))
def test_the_sweep_catches_each_mutant(mutant):
    failing = [case_id(case) for key in KEYS for case in swept_cases(key)
               if disagreement(mutant, case) is not None]
    assert failing
    if mutant is _memoised_bucket:
        # Under the engine's own bucket function only a key whose equal
        # spellings still hash apart shows it.
        assert any("int_or_float_tuple" in name and "hash_bucket" in name
                   for name in failing)


# -- errors surface as they did --------------------------------------------------

class TestErrorsSurface:
    def test_unhashable_key_raises_type_error(self):
        for fold in (fold_by_key, routing_key_buckets):
            with pytest.raises(TypeError, match="unhashable"):
                fold([(1, 2.0)], lambda row: [row[0]], REDUCERS["first"],
                     3, hash_bucket)

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
            [(0, 9.0), (1, 12.0), (2, 15.0)]]


# -- apply_grouped_reduce: every pair kind against group_elements + fold ---------

@vectorized
def member_sum(members):
    """An element key's vectorized reducer is handed the member list."""
    return (members[0][0], sum(float(m[1]) for m in members), len(members))


PAIRS = {
    "element+element": (lambda row: int(row[0]) // 2, REDUCERS["float_sum"]),
    "element+first": (lambda row: int(row[0]) // 2, REDUCERS["first"]),
    "element+vectorized": (lambda row: int(row[0]) // 2, member_sum),
    "vectorized+element": (
        vectorized(lambda block: first_column(block).astype(np.int64) // 2),
        REDUCERS["float_sum"]),
    "vectorized+vectorized": (
        vectorized(lambda block: first_column(block).astype(np.int64) // 2),
        block_sum),
}


def assert_same_payload(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    else:
        assert list(map(fingerprint, got)) == list(map(fingerprint, want))


@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("kind", ["list", "2d", "struct"])
@pytest.mark.parametrize("n", [0, 1, 30])
def test_apply_grouped_reduce_matches_group_then_fold(pair, kind, n):
    key_fn, reduce_fn = PAIRS[pair]
    pairs = [((5 * i) % 11, VALUES[i % len(VALUES)]) for i in range(n)]
    assert_same_payload(
        apply_grouped_reduce(make_payload(kind, pairs), key_fn, reduce_fn),
        grouped_reduce(make_payload(kind, pairs), key_fn, reduce_fn))


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
    assert_same_payload(
        apply_grouped_reduce(make_payload(kind, pairs), key_fn,
                             REDUCERS[reducer]),
        grouped_reduce(make_payload(kind, pairs), key_fn, REDUCERS[reducer]))


# -- distinct: the same plan node through both consumer bodies -------------------

def run_distinct(op):
    cluster = make_cluster(n_workers=2, cores=2)
    partitions = []
    body = op.execute_subtask

    def recording_subtask(ctx, inputs):
        part = yield from body(ctx, inputs)
        partitions.append((part.index, part.elements, part.element_nbytes,
                           part.scale, part.worker))
        return part

    with mock.patch.object(op, "execute_subtask", recording_subtask):
        result = DataSet(FlinkSession(cluster), op).collect()
    return result.value, sorted(partitions, key=lambda p: p[0]), \
        cluster.env.now


DISTINCT_KEYS = {
    "by_value": None,
    "int_or_float": lambda row: KEYS["int_or_float"](row[0]),
    "tuple": lambda row: KEYS["tuple"](row[0]),
    "vectorized": vectorized(lambda block: block[:, 0].astype(np.int64) // 2),
}


@pytest.mark.parametrize("key", sorted(DISTINCT_KEYS))
@pytest.mark.parametrize("n", [0, 1, 40])
def test_distinct_matches_group_then_first_member(key, n):
    rows = [((7 * i) % 9, float(i % 4)) for i in range(n)]
    session = FlinkSession(make_cluster())
    op = session.from_collection(rows, parallelism=3) \
        .distinct(DISTINCT_KEYS[key], parallelism=4).op
    twin = object.__new__(RetiredDistinctOp)
    twin.__dict__.update(vars(op))
    value, partitions, now = run_distinct(op)
    retired_value, retired_partitions, retired_now = run_distinct(twin)
    assert list(map(fingerprint, value)) == \
        list(map(fingerprint, retired_value))
    assert now == retired_now and len(partitions) == 4
    for got, want in zip(partitions, retired_partitions):
        assert got[0] == want[0] and got[2:] == want[2:]
        assert_same_payload(got[1], want[1])


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

        return [mock.patch("repro.flink.shuffle.fold_by_key", entered),
                mock.patch("repro.flink.iterators.fold_by_key", entered),
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
