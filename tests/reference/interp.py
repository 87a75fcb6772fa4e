"""The reference: what a plan means, with no cluster.

:func:`evaluate` walks the operator DAG a ``DataSet`` / ``GDST`` builds —
the logical plan, before the optimizer fuses anything — and computes its
answer in plain Python and NumPy.  There is no ``Environment``, no
partition, no price and no clock: a dataset is one list of rows, an
operator is what its docstring says it does, a GPU operator is its
registered kernel's NumPy body over the whole dataset, and an unrolled
``iterate`` is the chain of steps it built (a ``for`` loop at plan time).

Each row carries a *weight* — the nominal rows it stands for — so that
``count()`` is answered too: a source's rows weigh its ``scale``; a
row-wise operator keeps its input's weights; anything that aggregates emits
rows of weight 1.  Where rows of different weights meet in a whole-payload
operator that changes the row count, no row's weight is known: it is NaN,
and so is such a plan's count.

The answer is a multiset (:class:`Bag`) or a number (``count()``).  Order
is never part of an answer.

Only three things come from ``repro``: the operator classes dispatched on,
the kernel registry, and :func:`~repro.flink.iterators.is_vectorized`
(whether a UDF takes the whole payload at once).  ``scripts/lint.py`` holds
this file to that.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, NamedTuple, Optional

import numpy as np

from repro.core.gdst import GpuMapPartitionOp
from repro.flink.iterators import is_vectorized
from repro.flink.optimizer import FusedMapOp
from repro.flink.plan import (CollectionSource, CollectSink, CountSink,
                              HdfsSink, HdfsSource, KeyedReduceOp, MapOp,
                              MapPartitionOp, ReduceOp)
from repro.gpu.kernel import KernelRegistry


class Bag(NamedTuple):
    """A dataset: its rows (order carries no meaning) and their weights."""

    rows: list
    weights: list


def block(rows: list) -> np.ndarray:
    """The rows stacked into one NumPy block (what a kernel is handed)."""
    return np.asarray(rows)


def value(row: Any) -> Any:
    """A row as the hashable value it holds: a block row (a 1-D view or a
    GStruct record) is the tuple of its fields."""
    if isinstance(row, (np.ndarray, np.void)):
        return tuple(row.tolist())
    return row


def uniform(bag: Bag) -> float:
    """The one weight of every row of ``bag`` (NaN if they differ)."""
    return bag.weights[0] if len(set(bag.weights)) == 1 else float("nan")


def whole(bag: Bag, out: Any, keep: bool) -> Bag:
    """``out`` of a payload-wide operator: the input's weights if ``keep``
    (row for row when the count is unchanged), else weight 1."""
    rows = [] if out is None else list(out)
    if not keep:
        return Bag(rows, [1.0] * len(rows))
    if len(rows) == len(bag.rows):
        return Bag(rows, bag.weights)
    return Bag(rows, [uniform(bag)] * len(rows))


def group(rows: list, key_fn: Callable) -> Dict[Any, list]:
    """Rows by key, keys in first-seen order, members in row order."""
    if is_vectorized(key_fn) and rows:
        keys = np.asarray(getattr(key_fn, "column", key_fn)(block(rows)))
        keys = keys.tolist()
    else:
        keys = [key_fn(row) for row in rows]
    groups: Dict[Any, list] = {}
    for key, row in zip(keys, rows):
        groups.setdefault(key, []).append(row)
    return groups


def fold(members: list, reduce_fn: Callable) -> Any:
    """One key's rows folded left to right — a ``vectorized()`` reducer is
    handed the group whole, as a block of one segment."""
    if not is_vectorized(reduce_fn):
        return functools.reduce(reduce_fn, members)
    out = getattr(reduce_fn, "reduce", reduce_fn)(block(members),
                                                  np.array([0]))
    return out[0]


def stage(op, bag: Bag) -> Bag:
    """One map / mapPartition member (a partition function sees its input
    whole, even an empty one)."""
    rows, udf = bag.rows, op.udf
    if isinstance(op, MapPartitionOp):
        out = list(udf(block(rows) if is_vectorized(udf) else rows))
        return whole(bag, out, keep=len(out) == len(rows))
    if not rows:
        return bag
    if is_vectorized(udf):
        return whole(bag, udf(block(rows)), keep=True)
    return Bag([udf(row) for row in rows], bag.weights)


def kernels(op: GpuMapPartitionOp, bag: Bag,
            registry: KernelRegistry) -> Bag:
    """A GPU chain: each member's kernel body over the whole dataset."""
    if not bag.rows:
        return bag
    cur: Any = block(bag.rows)
    for member in op.stages:
        params = dict(member.params)
        inputs = {"in": cur}
        inputs.update({name: extra.supplier()
                       for name, extra in member.extra_inputs.items()})
        cur = registry.get(member.kernel_name).fn(inputs, params)["out"]
    out = list(np.atleast_1d(cur)) if isinstance(cur, np.ndarray) else cur
    return whole(bag, out, keep=len(out) == len(bag.rows))


def evaluate(op, registry: Optional[KernelRegistry] = None,
             files: Optional[Dict[str, list]] = None,
             memo: Optional[dict] = None) -> Any:
    """The answer of the plan rooted at ``op``.

    ``registry`` resolves GPU kernels; ``files`` maps an HDFS path to its
    chunk payloads, in order.
    """
    memo = {} if memo is None else memo
    if op.uid in memo:
        return memo[op.uid]
    ins = [evaluate(i, registry, files, memo) for i in op.inputs]
    memo[op.uid] = answer = _apply(op, ins, registry, files)
    return answer


def _apply(op, ins: List[Bag], registry, files) -> Any:
    if isinstance(op, CollectionSource):
        rows = list(op.elements)
        return Bag(rows, [float(op.scale)] * len(rows))
    if isinstance(op, HdfsSource):
        rows = [r for chunk in files[op.path] for r in chunk]
        return Bag(rows, [float(op.scale)] * len(rows))
    if isinstance(op, (CollectSink, HdfsSink)):
        return ins[0]
    if isinstance(op, CountSink):
        return float(sum(ins[0].weights))
    if isinstance(op, (MapOp, MapPartitionOp, FusedMapOp)):
        bag = ins[0]
        for member in op.stages:
            bag = stage(member, bag)
        return bag
    if isinstance(op, GpuMapPartitionOp):
        return kernels(op, ins[0], registry)
    bag = ins[0]
    if isinstance(op, KeyedReduceOp):
        rows = [fold(members, op.reduce_fn)
                for members in group(bag.rows, op.key_fn).values()]
        return Bag(rows, [1.0] * len(rows))
    if isinstance(op, ReduceOp):
        if not bag.rows:
            return Bag([], [])
        if is_vectorized(op.reduce_fn):
            return Bag([op.reduce_fn(block(bag.rows))], [1.0])
        return Bag([functools.reduce(op.reduce_fn, bag.rows)], [1.0])
    raise NotImplementedError(f"no reference for {type(op).__name__}")
