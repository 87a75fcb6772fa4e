"""Retired payload helpers and bucketing routines, kept as test oracles.

Until PR 17 the ``list | ndarray | None`` decision was re-made in seven
modules of ``repro.flink`` / ``repro.core``; every helper below is one of
those copies, verbatim from the commit that retired it, and the
differential tests hold :mod:`repro.flink.payload` and
:meth:`repro.flink.shuffle.Exchange._buckets` to them (in the style of
``group_elements`` for the segmented path, ``barriered()`` for the
pipelined clock and ``heap_only()`` for zero-wait events).  Nothing under
``src/`` may import this module.
"""

from typing import Any, Dict, List

import numpy as np

from repro.flink.iterators import apply_grouped_reduce
from repro.flink.payload import bucket_plan, group_plan
from repro.flink.plan import ShipStrategy
from repro.flink.shuffle import COUNT_COMBINER, Exchange, hash_bucket


# -- three length functions ----------------------------------------------------

def partition_real_len(elements: Any) -> int:
    """``repro.flink.partition.real_len``."""
    if elements is None:
        return 0
    if isinstance(elements, np.ndarray):
        return int(elements.shape[0]) if elements.ndim else 1
    return len(elements)


def gstream_result_len(data: object) -> int:
    """``repro.core.gstream._result_len``."""
    if data is None:
        return 0
    if isinstance(data, np.ndarray):
        return int(data.shape[0]) if data.ndim else 1
    try:
        return len(data)  # type: ignore[arg-type]
    except TypeError:
        return 1


def iterators_is_empty(elements: Any) -> bool:
    """``repro.flink.iterators._is_empty``."""
    if elements is None:
        return True
    if isinstance(elements, np.ndarray):
        return elements.shape[0] == 0 if elements.ndim else False
    return len(elements) == 0


# -- three concatenations and two inline merges --------------------------------

def is_columnar(elements: Any) -> bool:
    return isinstance(elements, np.ndarray) and elements.ndim >= 1


def plan_concat(payloads: List[Any]) -> Any:
    """``repro.flink.plan._concat`` (HdfsSource: one parsed payload per block)."""
    if not payloads:
        return []
    if all(isinstance(p, np.ndarray) for p in payloads):
        return payloads[0] if len(payloads) == 1 else np.concatenate(payloads)
    out: List[Any] = []
    for p in payloads:
        out.extend(list(p))
    return out


def columnar_concat(parts) -> Any:
    """``repro.flink.columnar.columnar_concat`` (zero-copy exchange merge)."""
    chunks = [p for p in parts if is_columnar(p) and p.shape[0] > 0]
    if not chunks:
        return []
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks, axis=0)


def gstream_assemble(results: Dict[int, object]) -> object:
    """``repro.core.gstream._assemble`` (per-block kernel outputs)."""
    ordered = [results[i] for i in sorted(results)]
    if not ordered:
        return []
    if all(isinstance(r, np.ndarray) for r in ordered):
        arrays = [r if r.ndim else r.reshape(1) for r in ordered]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    merged: List[object] = []
    for r in ordered:
        if isinstance(r, (list, tuple)):
            merged.extend(r)
        elif isinstance(r, np.ndarray):
            merged.extend(list(r))
        else:
            merged.append(r)
    return merged


def row_merge(buckets) -> list:
    """The inline merges of ``shuffle.py`` (row-serde routed and broadcast)."""
    merged: list = []
    for bucket in buckets:
        merged.extend(bucket)
    return merged


# -- three lifts -----------------------------------------------------------------

def rows_to_columnar(rows) -> Any:
    """``repro.flink.columnar.rows_to_columnar``."""
    rows = list(rows)
    return np.asarray(rows) if rows else []


def as_block(elements: Any) -> np.ndarray:
    """``repro.flink.columnar.as_block``."""
    if is_columnar(elements):
        return elements
    try:
        block = rows_to_columnar(elements)
    except ValueError:  # ragged rows
        block = None
    if not is_columnar(block) or block.dtype == object:
        raise TypeError("rows do not stack into one NumPy block")
    return block


def gdst_as_array(elements: Any) -> Any:
    """``repro.core.gdst._as_array``."""
    if isinstance(elements, np.ndarray):
        return elements
    try:
        return np.asarray(elements)
    except Exception:  # heterogeneous payloads stay as lists
        return elements


# -- the two bucketing routines --------------------------------------------------

class TwoPathExchange(Exchange):
    """An :class:`Exchange` that buckets the way the two routed paths did:
    ``_row_buckets`` under the per-row price list, ``_columnar_buckets``
    under zero-copy.  Pricing, shipping and merging are the engine's."""

    def _buckets(self, part, keys):
        if self._zero_copy(self._key_columns()):
            return self._columnar_buckets(part, keys)
        return self._row_buckets(part, keys)

    def _row_buckets(self, part, keys):
        """Bucket (and pre-combine) a payload one row at a time."""
        q = self.n_consumers
        if self.strategy is ShipStrategy.GATHER:
            buckets = [list(part.elements)]
        else:
            buckets = [[] for _ in range(q)]
            if self.strategy is ShipStrategy.REBALANCE:
                for i, x in enumerate(part.elements):
                    buckets[i % q].append(x)
            else:
                row_keys = (keys.tolist() if keys is not None
                            else map(self.key_fn, part.elements))
                for key, x in zip(row_keys, part.elements):
                    buckets[hash_bucket(key, q)].append(x)
        if self.combiner is not None and self.combiner is not COUNT_COMBINER:
            buckets = [self._row_combine(b) for b in buckets]
        return buckets

    def _columnar_buckets(self, part, keys):
        """Bucket (and pre-combine) a columnar payload without leaving NumPy."""
        arr = part.elements
        q = self.n_consumers
        if self.strategy is ShipStrategy.GATHER:
            buckets = [arr]
        elif not is_columnar(arr):  # empty list payload
            buckets = [arr] * q
        elif self.strategy is ShipStrategy.REBALANCE:
            buckets = [arr[j::q] for j in range(q)]
        elif self.combiner is not None and self.combiner[0] is self.key_fn:
            plan = group_plan(keys, q)
            combined = self.combiner[1](arr[plan.order], plan.starts)
            return [combined[plan.bounds[j]:plan.bounds[j + 1]]
                    for j in range(q)]
        else:
            order, cuts = bucket_plan(keys % q, q)  # == hash_bucket() on ints
            routed = arr[order]
            buckets = [routed[cuts[j]:cuts[j + 1]] for j in range(q)]
        if self.combiner is not None:
            buckets = [self._row_combine(b) for b in buckets]
        return buckets

    def _row_combine(self, bucket):
        """``Exchange._combine`` as it was: the bucket goes in as it is."""
        if partition_real_len(bucket) == 0:
            return bucket
        if callable(self.combiner):
            return list(self.combiner(bucket))
        key_fn, reduce_fn = self.combiner
        return apply_grouped_reduce(bucket, key_fn, reduce_fn)
