"""Partition payloads: the one module that knows what a payload *is*.

A partition payload is either a **row list** (a Python list of elements —
the Flink baseline's object-per-record world) or a **block** (a NumPy
array with one row per element on axis 0: 1-D primitive column, 2-D
row-block, or structured/GStruct record array).  ``None`` is a missing
payload of length 0; a kernel may also hand back a bare scalar or a 0-d
array, which is one row.

Every other module in ``repro.flink`` and ``repro.core`` is written once
against the accessors below — :func:`real_len`, :func:`is_block`,
:func:`concat`, :func:`take`, :func:`cut`, :func:`to_block` /
:func:`block_of` / :func:`to_rows` / :func:`to_tuples` / :func:`rows_like`,
:func:`sort_rows` and the positional ones (:func:`field_column`,
:func:`with_field`) — and never tests the representation itself
(``scripts/lint.py`` lints that).  What the
two formats *cost* is not decided here: the exchange picks a serde price list
(:meth:`repro.flink.shuffle.Exchange._zero_copy`) and
:meth:`repro.flink.jobmanager.TaskContext.charge` a CPU one.

Blocks can be routed, sliced and concatenated as contiguous byte regions,
which is what lets the exchange ship them without per-row serde: the wire
carries the SoA regions verbatim plus a fixed-cost descriptor per block
(``FlinkConfig.shuffle_block_header_s``).  The block algorithms that make
that one pass per producer — :func:`bucket_plan`, :func:`group_plan`,
:func:`segment_fold` — live here too.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, NamedTuple, Optional, Sequence

import numpy as np


def real_len(payload: Any) -> int:
    """Number of real rows in a payload (a lone scalar or 0-d array is one)."""
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.shape[0]) if payload.ndim else 1
    try:
        return len(payload)
    except TypeError:
        return 1


def is_block(payload: Any) -> bool:
    """True if ``payload`` is a NumPy block (what zero-copy can carry)."""
    return isinstance(payload, np.ndarray) and payload.ndim >= 1


def concat(parts: Sequence[Any]) -> Any:
    """Merge payloads in order.

    NumPy parts concatenate to one block (a single part is returned as is,
    a 0-d array counts as a one-row block); as soon as one part is anything
    else, or record blocks meet plain ones, the result is a row list.  No
    parts is ``[]``.
    """
    if parts and all(isinstance(p, np.ndarray) for p in parts):
        blocks = [p if p.ndim else p.reshape(1) for p in parts]
        if len(blocks) == 1:
            return blocks[0]
        dtype = blocks[0].dtype
        if dtype.names and all(b.dtype == dtype for b in blocks):
            # One record type: named, so NumPy does not promote the fields
            # pair by pair (a third of the time of the default call).
            return np.concatenate(blocks, dtype=dtype)
        named = dtype.names is not None
        if all((b.dtype.names is not None) is named for b in blocks):
            return np.concatenate(blocks)
    rows: List[Any] = []
    for p in parts:
        if hasattr(p, "__len__"):
            rows.extend(p)
        else:  # a scalar kernel result (or None) is one row
            rows.append(p)
    return rows


def take(payload: Any, index: np.ndarray) -> Any:
    """Rows of ``payload`` at the positions in ``index``, in that order."""
    if is_block(payload):
        return payload[index]
    return list(map(payload.__getitem__, index.tolist()))


def cut(payload: Any, bucket_ids: Any, q: int) -> List[Any]:
    """Route rows to ``q`` buckets: bucket *j* holds the rows whose id (a
    list or an integer column, one per row) is *j*, in original order.

    A block is laid out by destination with one stable sort
    (:func:`bucket_plan`) and sliced; a row list is dealt out row by row.
    """
    if is_block(payload):
        order, cuts = bucket_plan(np.asarray(bucket_ids, dtype=np.intp), q)
        routed, cuts = payload[order], cuts.tolist()
        return [routed[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    if hasattr(bucket_ids, "tolist"):  # an id column: index with ints
        bucket_ids = bucket_ids.tolist()
    buckets: List[List[Any]] = [[] for _ in range(q)]
    for bucket, row in zip(bucket_ids, payload):
        buckets[bucket].append(row)
    return buckets


def to_rows(payload: Any) -> List[Any]:
    """Lower to a row list: a block becomes the list of its rows.

    This is the columnar→row boundary, where an engine would materialize
    one object per record; callers charge per-row serde there.
    """
    return list(payload) if is_block(payload) else payload


def to_block(rows: Any) -> np.ndarray:
    """Lift to the NumPy block a ``vectorized()`` keyed UDF or a kernel takes.

    Blocks pass through; a row list is stacked.  Rows that do not stack
    into one typed block raise a ``TypeError`` naming the contract.
    """
    if is_block(rows):
        return rows
    try:
        block = np.asarray(rows)
    except ValueError:  # ragged rows
        block = None
    if not is_block(block) or block.dtype == object:
        raise TypeError(
            "vectorized() key extractors and keyed reducers take a NumPy "
            "block with one row per element on axis 0; this payload's rows "
            "do not stack into one")
    return block


def block_of(payload: Any, lift: bool) -> Optional[np.ndarray]:
    """The block a keyed pair's block form takes, or ``None`` when
    ``payload`` has to be walked row by row: a block is itself, a row list
    is stacked (:func:`to_block`) only when ``lift`` — a ``vectorized()``
    UDF has no row form; a built-in one (``repro.flink.iterators.field``)
    has, and keeps the row types it was handed."""
    if is_block(payload):
        return payload
    return to_block(payload) if lift else None


def to_tuples(payload: Any) -> Any:
    """Lower a block of records to what an element UDF would have emitted:
    a list of tuples of Python scalars, built a column at a time (no row
    view, no NumPy scalar box per field).  A GStruct block's tuples carry
    each field's own type, a 2-D block's its one dtype; anything else (a
    row list, a 1-D column) passes through."""
    if is_block(payload):
        if payload.dtype.names:
            return payload.tolist()
        if payload.ndim == 2:
            return list(zip(*payload.T.tolist()))
    return payload


def field_column(block: np.ndarray, index: int) -> np.ndarray:
    """Field ``index`` of every row, as a view: column ``index`` of a 2-D
    block, the ``index``-th field (declaration order) of a GStruct block."""
    names = block.dtype.names
    if names:
        return block[names[index]]
    if block.ndim != 2:
        raise TypeError(
            "rows of a 1-D primitive block have no fields; a positional "
            "key or aggregate needs a 2-D or GStruct block")
    return block[:, index]


def with_field(row: Any, index: int, value: Any) -> Any:
    """``row`` with field ``index`` replaced — a new row of the same kind
    (tuple, list, 1-D block row or GStruct record), never ``row`` itself."""
    if isinstance(row, tuple):
        return row[:index] + (value,) + row[index + 1:]
    out = row.copy()
    out[index] = value
    return out


def row_value(row: Any) -> Any:
    """A row as the hashable value it holds — ``distinct()``'s default key:
    a block row (a 1-D view of a 2-D block or a GStruct record) is the
    tuple of its fields as Python scalars, so a row list, a 2-D block and a
    GStruct block of the same rows deduplicate alike; any other row is
    itself."""
    if isinstance(row, (np.ndarray, np.void)):
        return tuple(row.tolist())
    return row


def rows_like(payload: Any, rows: List[Any]) -> Any:
    """``rows`` in ``payload``'s format: stacked if ``payload`` is a block."""
    return np.array(rows) if is_block(payload) else rows


def sort_rows(payload: Any, key_fn: Optional[Callable] = None,
              reverse: bool = False) -> Any:
    """Stable sort, in the row order of ``sorted(rows, key=key_fn,
    reverse=reverse)`` whatever the format.

    A block's rows compare as the Python values they hold (a 2-D row as
    the sequence of its fields, a GStruct record as its tuple), and
    ``reverse`` keeps ties in their original order, as ``sorted`` does.
    """
    if not is_block(payload):
        return sorted(payload, key=key_fn, reverse=reverse)
    keys = (payload.tolist() if key_fn is None
            else [key_fn(row) for row in payload])
    order = sorted(range(len(keys)), key=keys.__getitem__, reverse=reverse)
    return payload[np.asarray(order, dtype=np.intp)]


def n_wire_blocks(payload: Any, nbytes: float, block_nbytes: float) -> int:
    """Number of framed wire blocks for a zero-copy payload of ``nbytes``.

    The exchange partitions each destination payload into pipeline-sized
    blocks (``FlinkConfig.pipeline_block_nbytes``).  A structured (GStruct)
    block ships one contiguous SoA region per field — the layout of
    :meth:`repro.core.gstruct.GStruct.to_soa` — and each region is framed
    separately, so it pays one descriptor per field per block; anything
    else is a single region.  Total bytes are unchanged either way.
    """
    n_regions = (len(payload.dtype.names)
                 if is_block(payload) and payload.dtype.names else 1)
    if nbytes <= 0:
        return n_regions
    return max(1, math.ceil(nbytes / block_nbytes)) * n_regions


def key_column(key_fn, block: np.ndarray) -> np.ndarray:
    """Evaluate a key extractor's block form once over ``block``: a
    built-in's ``column`` (``repro.flink.iterators.field``), else the
    ``vectorized()`` callable itself."""
    keys = np.asarray(getattr(key_fn, "column", key_fn)(block))
    if keys.ndim != 1 or keys.shape[0] != block.shape[0]:
        raise TypeError(
            "a vectorized() key extractor maps a block of n rows to a 1-D "
            f"key column of length n; got shape {keys.shape} for "
            f"{block.shape[0]} rows")
    return keys


def integral_as_int(keys: np.ndarray) -> np.ndarray:
    """A float key column whose values are all integral (and inside int64)
    as the ints they equal — ``hash_bucket``'s rule for one key (``2.0``
    routes with ``2``, ``-0.0`` with ``0``), for a whole column.  Any other
    column comes back as it is."""
    if keys.dtype.kind != "f" or not (
            (keys == np.trunc(keys)) & (np.abs(keys) < 2.0 ** 63)).all():
        return keys
    return keys.astype(np.int64)


def bucket_plan(bucket_ids: np.ndarray, q: int):
    """Row order and cut points that route a block to ``q`` consumers.

    ``block[order][cuts[j]:cuts[j + 1]]`` is bucket *j* with its rows in
    original order — exactly the per-row routes' buckets, from one stable
    sort instead of ``q`` boolean masks.
    """
    order = np.argsort(bucket_ids, kind="stable")
    return order, np.searchsorted(bucket_ids[order], np.arange(q + 1))


class GroupPlan(NamedTuple):
    """Segmented layout of a block grouped by key (see :func:`group_plan`)."""

    order: np.ndarray   #: row permutation: block[order] is segment-sorted
    starts: np.ndarray  #: first row of each segment within block[order]
    bounds: np.ndarray  #: bucket j owns segments bounds[j]:bounds[j + 1]


def group_plan(keys: np.ndarray, q: int = 1) -> GroupPlan:
    """Group rows by key — one stable sort, no per-group work.

    ``block[order]`` is sorted by *(bucket = key % q, first-seen key,
    original position)*: inside bucket *j* the segments come out exactly as
    :func:`repro.flink.iterators.group_elements` would produce them from
    that bucket's rows (keys first-seen, members in original order).  Any
    sortable 1-D key dtype groups; ``q > 1`` needs integer keys.  ``-0.0``
    and ``0.0`` are one key, as in a dict; NaN keys equal nothing, not even
    themselves, and are rejected.
    """
    if keys.dtype.kind in "fc" and np.isnan(keys).any():
        raise ValueError("NaN key: NaN never equals itself, so it cannot "
                         "name a group")
    n = len(keys)
    perm = np.argsort(keys, kind="stable")  # by (key, original position)
    by_key = keys[perm]
    # One run per distinct key ([:n] drops the lone True of an empty block).
    run_starts = np.flatnonzero(
        np.concatenate(([True], by_key[1:] != by_key[:-1]))[:n])
    first_seen = perm[run_starts]
    if q > 1:
        buckets = by_key[run_starts] % q
        run_order = np.lexsort((first_seen, buckets))
        bounds = np.searchsorted(buckets[run_order], np.arange(q + 1))
    else:
        run_order = np.argsort(first_seen, kind="stable")
        bounds = np.array([0, len(run_starts)])
    counts = np.diff(np.append(run_starts, n))[run_order]
    starts = np.cumsum(counts) - counts
    # Segment i of the output is run run_order[i] of the key-sorted rows.
    order = perm[np.repeat(run_starts[run_order] - starts, counts)
                 + np.arange(n)]
    return GroupPlan(order, starts, bounds)


def segment_fold(ufunc: np.ufunc, column: np.ndarray,
                 starts: np.ndarray) -> np.ndarray:
    """Left-fold a binary ``ufunc`` over every segment of a 1-D column.

    Each segment is seeded with its first row and the rest accumulate in
    row order (unbuffered ``ufunc.at``) — the element path's left fold, so
    float sums are bit-identical to it and ``np.minimum`` / ``np.maximum``
    come free.  ``np.add.reduceat`` is not: it sums long segments pairwise.
    """
    out = column[starts]
    rest = np.ones(len(column), dtype=bool)
    rest[starts] = False
    segment_of_row = np.cumsum(~rest) - 1
    ufunc.at(out, segment_of_row[rest], column[rest])
    return out


def segment_sum(column: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """:func:`segment_fold` of ``+`` — what a hand-written ``vectorized()``
    keyed sum calls to stay the left fold."""
    return segment_fold(np.add, column, starts)


def group_columnar(elements: np.ndarray, keys: np.ndarray) -> dict:
    """Group a columnar payload by a key column.

    Matches :func:`repro.flink.iterators.group_elements` exactly: keys in
    first-seen order, members in original order.  Group values are slices
    of the one segment-sorted block.
    """
    plan = group_plan(keys)
    block = elements[plan.order]
    ends = np.append(plan.starts[1:], len(block))
    return {key: block[start:end] for key, start, end in zip(
        keys[plan.order[plan.starts]].tolist(),
        plan.starts.tolist(), ends.tolist())}
