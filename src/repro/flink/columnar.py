"""Columnar (zero-copy) payload helpers for exchanges and block operators.

A *columnar* partition payload is a NumPy array (1-D primitive column,
2-D row-block, or structured/GStruct record array).  Columnar payloads can
be routed, sliced and concatenated as contiguous byte regions, which is
what lets the exchange ship them without per-row serde: the wire carries
the SoA regions verbatim plus a fixed-cost descriptor per block
(``FlinkConfig.shuffle_block_header_s``).  Row payloads (Python lists)
always take the classic per-record serde path.

Serde is charged only at the columnar↔row boundary: :func:`rows_to_columnar`
and :func:`columnar_to_rows` are where an engine would pay object
materialization, and callers charge ``Serializer`` time there.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, List, NamedTuple, Sequence

import numpy as np


def is_columnar(elements: Any) -> bool:
    """True if ``elements`` is a payload the zero-copy path can carry."""
    return isinstance(elements, np.ndarray) and elements.ndim >= 1


def columnar_compatible(elements: Any) -> bool:
    """True if ``elements`` is columnar or trivially empty.

    Empty list payloads (e.g. a producer that emitted nothing) do not force
    an exchange back onto the row path.
    """
    if is_columnar(elements):
        return True
    return isinstance(elements, (list, tuple)) and len(elements) == 0


def soa_regions(elements: np.ndarray) -> List[int]:
    """Byte sizes of the SoA regions of a columnar payload.

    A structured (GStruct) array ships one contiguous region per field —
    the SoA layout of :meth:`repro.core.gstruct.GStruct.to_soa` — while a
    plain numeric array is a single region.  Region count feeds the
    per-block descriptor charge; total bytes are unchanged either way.
    """
    n = int(elements.shape[0]) if elements.ndim else 1
    if elements.dtype.names:
        return [n * elements.dtype[name].itemsize
                for name in elements.dtype.names]
    return [int(elements.nbytes)]


def n_wire_blocks(nbytes: float, block_nbytes: float,
                  n_regions: int = 1) -> int:
    """Number of framed wire blocks for a payload of ``nbytes``.

    The exchange partitions each destination payload into pipeline-sized
    blocks (``FlinkConfig.pipeline_block_nbytes``); each SoA region is
    framed separately, so a GStruct payload pays one descriptor per field
    per block.
    """
    if nbytes <= 0:
        return max(1, n_regions)
    return max(1, math.ceil(nbytes / block_nbytes)) * max(1, n_regions)


def columnar_concat(parts: Sequence[np.ndarray]) -> Any:
    """Concatenate columnar buckets into one merged payload.

    Returns ``[]`` when every bucket is empty so a consumer that received
    nothing sees the same payload as on the row path.
    """
    chunks = [p for p in parts if is_columnar(p) and p.shape[0] > 0]
    if not chunks:
        return []
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks, axis=0)


def rows_to_columnar(rows: Iterable[Any]) -> Any:
    """Row→columnar boundary: materialize rows into a NumPy block.

    Callers charge serde for the conversion; this helper only performs it.
    """
    rows = list(rows)
    return np.asarray(rows) if rows else []


def columnar_to_rows(elements: Any) -> List[Any]:
    """Columnar→row boundary: materialize Python rows from a block.

    Callers charge serde for the conversion; this helper only performs it.
    """
    if isinstance(elements, np.ndarray):
        return list(elements)
    return list(elements) if elements is not None else []


def as_block(elements: Any) -> np.ndarray:
    """The NumPy block a ``vectorized()`` keyed UDF runs over.

    Columnar payloads pass through; a row list is lifted through
    :func:`rows_to_columnar`.  Rows that do not stack into one typed block
    raise a ``TypeError`` naming the contract.
    """
    if is_columnar(elements):
        return elements
    try:
        block = rows_to_columnar(elements)
    except ValueError:  # ragged rows
        block = None
    if not is_columnar(block) or block.dtype == object:
        raise TypeError(
            "vectorized() key extractors and keyed reducers take a NumPy "
            "block with one row per element on axis 0; this payload's rows "
            "do not stack into one")
    return block


def key_column(key_fn, block: np.ndarray) -> np.ndarray:
    """Evaluate a ``vectorized()`` key extractor once over ``block``."""
    keys = np.asarray(key_fn(block))
    if keys.ndim != 1 or keys.shape[0] != block.shape[0]:
        raise TypeError(
            "a vectorized() key extractor maps a block of n rows to a 1-D "
            f"key column of length n; got shape {keys.shape} for "
            f"{block.shape[0]} rows")
    return keys


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


def segment_sum(column: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Left-fold ``+`` over every segment of a 1-D column.

    Each segment is seeded with its first row and the rest accumulate in
    row order (unbuffered ``np.add.at``) — the element path's left fold, so
    float sums are bit-identical to it.  ``np.add.reduceat`` is not: it
    sums long segments pairwise.
    """
    out = column[starts]
    rest = np.ones(len(column), dtype=bool)
    rest[starts] = False
    segment_of_row = np.cumsum(~rest) - 1
    np.add.at(out, segment_of_row[rest], column[rest])
    return out


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
