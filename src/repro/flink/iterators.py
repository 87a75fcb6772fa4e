"""Functional execution of user functions over partition payloads.

The *timing* of CPU operators follows Flink's one-element-at-a-time iterator
model (per-element overhead plus per-element FLOPs) unless every UDF of the
operator is marked :func:`vectorized` — see
:meth:`repro.flink.jobmanager.TaskContext.charge`.  The *functional* result
is computed here, with one whole-partition call for a vectorized UDF.  What
the payload *is* (row list or NumPy block) is never asked here: that is
:mod:`repro.flink.payload`'s job.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Iterable

import numpy as np

from repro.flink.payload import (block_of, field_column, group_plan,
                                 integral_as_int, key_column, real_len,
                                 rows_like, segment_fold, with_field)


def vectorized(udf: Callable) -> Callable:
    """Mark ``udf`` as operating on a whole partition payload at once.

    A vectorized map receives the partition's elements (list or ndarray) and
    returns the transformed elements; a vectorized plain ``reduce`` receives
    the whole payload and returns the reduced value.

    A vectorized *key extractor* maps a block of n rows to a 1-D key column
    of length n (any sortable dtype; HASH routing also needs integers).  A
    vectorized *keyed reducer* — ``group_by(vectorized(key)).reduce(...)``
    — is called once per block as ``reduce_fn(block, starts)``: ``block``
    holds the rows sorted so that every group is one contiguous segment
    (groups in first-seen order, rows in original order), ``starts`` the
    first row of each segment, and it returns one row per segment as a
    block.  The reducer contract of
    :meth:`repro.flink.dataset.GroupedDataSet.reduce` holds per segment: to
    stay bit-identical to the element path a float reducer must fold each
    segment left to right (:func:`repro.flink.payload.segment_fold`);
    ``np.add.reduceat`` sums long segments pairwise and does not.  A marked
    keyed UDF pairs only with one that also has a block form
    (:meth:`repro.flink.dataset.GroupedDataSet.reduce`).

    On a built-in (:class:`field`, :func:`field_sum`) the marker changes
    the *price* only — it has a block form either way.
    """
    udf.__repro_vectorized__ = True
    return udf


def is_vectorized(udf: Callable) -> bool:
    """True if ``udf`` was wrapped with :func:`vectorized`."""
    return getattr(udf, "__repro_vectorized__", False)


class _ByField:
    """A built-in keyed UDF over one field position (Flink's
    ``groupBy(0).sum(1)``): an ordinary element UDF when called with rows,
    and one that also answers for a whole block (:func:`takes_block`)."""

    def __init__(self, index: int):
        if not isinstance(index, int) or index < 0:
            raise ValueError(
                f"a field position is a non-negative int, got {index!r}")
        self.index = index


class field(_ByField):
    """Key extractor by position: ``field(i)(row) == row[i]``.

    Its block form, :meth:`column`, is field ``i`` of every row of a 2-D or
    GStruct block as one key column; a float column whose values are all
    integral comes back as the ints they equal, so it routes and prices as
    the integer keys it holds.
    """

    def __call__(self, row: Any) -> Any:
        return row[self.index]

    def column(self, block: np.ndarray) -> np.ndarray:
        return integral_as_int(field_column(block, self.index))


class _FieldFold(_ByField):
    """Keyed reducer by position: ``reducer(a, b)`` is ``a`` with field
    ``index`` folded with ``b``'s — never ``a`` itself modified.

    Its block form, :meth:`reduce`, honours the ``reduce_fn(block, starts)``
    contract of :func:`vectorized`: each segment's first row with the field
    left-folded over the segment, bit for bit what the row form returns
    over the same rows (values must be totally ordered for min / max: no
    NaN).  A subclass names the row form's scalar ``fold`` and the
    ``ufunc`` that is the same fold of columns.
    """

    def __call__(self, a: Any, b: Any) -> Any:
        i = self.index
        return with_field(a, i, self.fold(a[i], b[i]))

    def reduce(self, block: np.ndarray, starts: np.ndarray) -> np.ndarray:
        out = block[starts]
        field_column(out, self.index)[...] = segment_fold(
            self.ufunc, field_column(block, self.index), starts)
        return out


class field_sum(_FieldFold):
    """Keyed reducer summing field ``index`` (``a[index] + b[index]``)."""

    fold, ufunc = operator.add, np.add


class field_min(_FieldFold):
    """Keyed reducer keeping the smaller field ``index``."""

    fold, ufunc = min, np.minimum


class field_max(_FieldFold):
    """Keyed reducer keeping the larger field ``index``."""

    fold, ufunc = max, np.maximum


def is_builtin(udf: Callable) -> bool:
    """True for :class:`field` and the :func:`field_sum` family."""
    return isinstance(udf, _ByField)


def takes_block(udf: Callable) -> bool:
    """True if a keyed ``udf`` has a block form: it is marked
    :func:`vectorized` (then it has no other) or built in."""
    return is_vectorized(udf) or is_builtin(udf)


def takes_rows(udf: Callable) -> bool:
    """True if a keyed ``udf`` has a row form: it is an element UDF or
    built in (marked or not)."""
    return is_builtin(udf) or not is_vectorized(udf)


def reduce_segments(reduce_fn: Callable, block: np.ndarray,
                    starts: np.ndarray) -> np.ndarray:
    """One call of a keyed reducer's block form over a segment-sorted
    block: a built-in's ``reduce``, else the ``vectorized()`` callable."""
    return getattr(reduce_fn, "reduce", reduce_fn)(block, starts)


def apply_map(elements: Any, udf: Callable) -> Any:
    """``map``: one output element per input element."""
    if not real_len(elements):
        # Normalize missing payloads to []; keep empty blocks (dtype).
        return [] if elements is None else elements
    if is_vectorized(udf):
        return udf(elements)
    return rows_like(elements, [udf(x) for x in elements])


def apply_reduce(elements: Any, udf: Callable) -> Any:
    """``reduce``: pairwise fold of all elements into one value.

    A vectorized reducer receives the whole payload and returns the
    reduced value directly.
    """
    if is_vectorized(udf):
        if not real_len(elements):
            return None
        return udf(elements)
    iterator = iter(elements)
    try:
        acc = next(iterator)
    except StopIteration:
        return None
    for x in iterator:
        acc = udf(acc, x)
    return acc


def fold_by_key(rows: Iterable[Any], key_fn: Callable,
                reduce_fn: Callable) -> list:
    """Hash aggregate of an element ``(key_fn, reduce_fn)`` pair: one pass
    over ``rows``, reduce on insert (Thrill's ``ReduceByKey`` table).

    Keys come out in first-seen order, each folded left to right in row
    order; a one-row group is its row, the same object, and never reaches
    ``reduce_fn``.  That is exactly what grouping the rows and then folding
    each group returns (``tests/flink/retired.py`` keeps that composition
    as the oracle) with one difference a pure reducer cannot observe: calls
    of ``reduce_fn`` for different keys interleave in row order instead of
    running key by key.
    """
    table: dict = {}
    for x in rows:
        key = key_fn(x)
        if key in table:
            table[key] = reduce_fn(table[key], x)
        else:
            table[key] = x
    return list(table.values())


def apply_grouped_reduce(elements: Any, key_fn: Callable,
                         reduce_fn: Callable) -> Any:
    """Keyed reduce of one payload (keyed reduce / pre-combine).

    A pair that :func:`takes_block` takes the segmented path: one key
    extraction, one sort, one :func:`reduce_segments` call, and the result
    stays a block.  A ``vectorized()`` member has no row form, so a row
    list is lifted for it; an unmarked built-in pair takes a block when
    handed one and is otherwise an element pair like any other — one
    :func:`fold_by_key` pass returning a row list.  No other pair reaches
    here (:meth:`repro.flink.dataset.GroupedDataSet.reduce`).
    """
    if not real_len(elements):
        return [] if elements is None else elements
    if takes_block(key_fn) and takes_block(reduce_fn):
        block = block_of(elements, lift=is_vectorized(key_fn)
                         or is_vectorized(reduce_fn))
        if block is not None:
            plan = group_plan(key_column(key_fn, block))
            return reduce_segments(reduce_fn, block[plan.order], plan.starts)
    return fold_by_key(elements, key_fn, reduce_fn)
