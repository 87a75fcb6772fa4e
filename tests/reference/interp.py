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

The answer is a multiset (:class:`Bag`), a number (``count()``), or a
:class:`Pick` where the API lets the engine choose: ``first(n)`` keeps any
``min(n, |input|)`` rows, ``distinct(key)`` any one row per key.  Order is
never part of an answer; a test checks it where the API promises it.

Only three things come from ``repro``: the operator classes dispatched on,
the kernel registry, and :func:`~repro.flink.iterators.is_vectorized`
(whether a UDF takes the whole payload at once).  ``scripts/lint.py`` holds
this file to that.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, NamedTuple, Optional

import numpy as np

from repro.core.gdst import GpuJoinOp, GpuMapPartitionOp
from repro.flink.iterators import is_vectorized
from repro.flink.optimizer import FusedMapOp
from repro.flink.plan import (CoGroupOp, CollectionSource, CollectSink,
                              CountSink, CrossOp, DistinctOp, FilterOp,
                              FirstNOp, FlatMapOp, GroupReduceOp, HdfsSink,
                              HdfsSource, JoinOp, KeyedReduceOp, MapOp,
                              MapPartitionOp, ReduceOp, SortPartitionOp,
                              UnionOp)
from repro.gpu.kernel import KernelRegistry


class Bag(NamedTuple):
    """A dataset: its rows (order carries no meaning) and their weights."""

    rows: list
    weights: list


class Pick(NamedTuple):
    """An answer the engine chooses: ``counts[i]`` rows of ``groups[i]``.

    ``first_wins``: on one input partition, whose order is the order of
    ``rows``, the choice is each group's first row (``distinct(key)`` is
    pick-first)."""

    groups: List[list]
    counts: List[int]
    first_wins: bool = False


def bag_of(pairs) -> Bag:
    """``(row, weight)`` pairs as a :class:`Bag`."""
    pairs = list(pairs)
    return Bag([r for r, _ in pairs], [w for _, w in pairs])


class NoBlock(Exception):
    """Rows handed to a ``vectorized()`` UDF or a kernel do not stack into
    one block (a GStruct record beside a plain row): the reference has no
    block to hand it, so it has no answer either."""


def block(rows: list) -> np.ndarray:
    """The rows stacked into one NumPy block (what a kernel is handed)."""
    try:
        return np.asarray(rows)
    except ValueError as exc:  # ragged rows
        raise NoBlock(str(exc)) from None


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


def fold(members: list, reduce_fn: Callable, vectorized_key: bool) -> Any:
    """One key's rows folded left to right — a ``vectorized()`` reducer is
    handed the group whole: a block of one segment, or (after an element
    key) the member list."""
    if not is_vectorized(reduce_fn):
        return functools.reduce(reduce_fn, members)
    if not vectorized_key and not hasattr(reduce_fn, "reduce"):
        return reduce_fn(members)
    out = getattr(reduce_fn, "reduce", reduce_fn)(block(members),
                                                  np.array([0]))
    return out[0]


def grouped(bag: Bag, key_fn: Callable, per_group: Callable) -> Bag:
    """``per_group(key, members)`` per key, flattened when it is a list."""
    rows: list = []
    for key, members in group(bag.rows, key_fn).items():
        out = per_group(key, members)
        rows.extend(out if isinstance(out, list) else [out])
    return Bag(rows, [1.0] * len(rows))


def stage(op, bag: Bag) -> Bag:
    """One map / filter / flatMap / mapPartition member (a partition
    function sees its input whole, even an empty one)."""
    rows, udf = bag.rows, op.udf
    if isinstance(op, MapPartitionOp):
        out = list(udf(block(rows) if is_vectorized(udf) else rows))
        return whole(bag, out, keep=len(out) == len(rows))
    if not rows:
        return bag
    if is_vectorized(udf):
        out = udf(block(rows))
        if isinstance(op, FilterOp):
            keep = np.flatnonzero(np.asarray(out, dtype=bool)).tolist()
            return Bag([rows[i] for i in keep],
                       [bag.weights[i] for i in keep])
        return whole(bag, out, keep=True)
    if isinstance(op, MapOp):
        return Bag([udf(row) for row in rows], bag.weights)
    if isinstance(op, FilterOp):
        return bag_of((r, w) for r, w in zip(rows, bag.weights) if udf(r))
    assert isinstance(op, FlatMapOp), op
    return bag_of((out, w) for r, w in zip(rows, bag.weights)
                  for out in udf(r))


def kernels(op: GpuMapPartitionOp, bag: Bag,
            registry: KernelRegistry) -> Bag:
    """A GPU chain: each member's kernel body over the whole dataset."""
    if not bag.rows:
        return bag
    cur: Any = block(bag.rows)
    for member in op.stages:
        params = dict(member.params)
        if member.params_fn is not None:
            params.update(member.params_fn())
        inputs = {"in": cur}
        inputs.update({name: extra.supplier()
                       for name, extra in member.extra_inputs.items()})
        cur = registry.get(member.kernel_name).fn(inputs, params)["out"]
    out = list(np.atleast_1d(cur)) if isinstance(cur, np.ndarray) else cur
    semantics = op.stages[-1].scale_semantics
    keep = semantics in ("map", "flatmap") or (
        semantics == "auto" and (len(out) == len(bag.rows) or any(
            s.scale_semantics == "flatmap" for s in op.stages[:-1])))
    return whole(bag, out, keep)


def evaluate(op, registry: Optional[KernelRegistry] = None,
             files: Optional[Dict[str, list]] = None,
             memo: Optional[dict] = None) -> Any:
    """The answer of the plan rooted at ``op``.

    ``registry`` resolves GPU kernels; ``files`` maps an HDFS path to its
    chunk payloads, in order.  A :class:`Pick` answers only at the root.
    """
    memo = {} if memo is None else memo
    if op.uid in memo:
        return memo[op.uid]
    ins = [evaluate(i, registry, files, memo) for i in op.inputs]
    if any(isinstance(i, Pick) for i in ins) and not isinstance(
            op, (CollectSink, CountSink, HdfsSink)):
        raise NotImplementedError("first(n) / distinct(key) feeds an operator")
    memo[op.uid] = answer = _apply(op, ins, registry, files)
    return answer


def _apply(op, ins: List[Bag], registry, files) -> Any:
    if isinstance(op, CollectionSource):
        rows = list(op.elements)
        return Bag(rows, [float(op.scale)] * len(rows))
    if isinstance(op, HdfsSource):
        rows = [r for chunk in files[op.path] for r in op.parser(chunk)]
        return Bag(rows, [float(op.scale)] * len(rows))
    if isinstance(op, (CollectSink, HdfsSink)):
        return ins[0]
    if isinstance(op, SortPartitionOp):  # one partition: a stable sort
        by = op.key_fn or value
        return bag_of(sorted(zip(*ins[0]), key=lambda rw: by(rw[0]),
                             reverse=op.reverse))
    if isinstance(op, CountSink):
        if isinstance(ins[0], Pick):
            return float(sum(ins[0].counts))
        return float(sum(ins[0].weights))
    if isinstance(op, (MapOp, FilterOp, FlatMapOp, MapPartitionOp,
                       FusedMapOp)):
        bag = ins[0]
        for member in op.stages:
            bag = stage(member, bag)
        return bag
    if isinstance(op, GpuMapPartitionOp):
        return kernels(op, ins[0], registry)
    if isinstance(op, GpuJoinOp):
        left, right = ins
        if not left.rows or not right.rows:
            return Bag([], [])
        out = registry.get(op.kernel_name).fn(
            {"in": block(left.rows), "right": block(right.rows)},
            dict(op.params))["out"]
        weight = np.maximum(uniform(left), uniform(right))
        return Bag(list(out), [weight] * len(out))
    bag = ins[0]
    if isinstance(op, KeyedReduceOp):
        vkey = is_vectorized(op.key_fn)
        return grouped(bag, op.key_fn,
                       lambda k, ms: fold(ms, op.reduce_fn, vkey))
    if isinstance(op, GroupReduceOp):
        return grouped(bag, op.key_fn, op.group_fn)
    if isinstance(op, ReduceOp):
        if not bag.rows:
            return Bag([], [])
        if is_vectorized(op.reduce_fn):
            return Bag([op.reduce_fn(block(bag.rows))], [1.0])
        return Bag([functools.reduce(op.reduce_fn, bag.rows)], [1.0])
    if isinstance(op, DistinctOp):
        groups = list(group(bag.rows, op.key_fn).values())
        if all(value(m) == value(ms[0]) for ms in groups for m in ms):
            # The key names the row (by default it is the row): no choice.
            return Bag([ms[0] for ms in groups], [1.0] * len(groups))
        return Pick(groups, [1] * len(groups), first_wins=True)
    if isinstance(op, FirstNOp):
        return Pick([bag.rows], [min(op.n, len(bag.rows))])
    left, right = ins
    if isinstance(op, UnionOp):
        return Bag(left.rows + right.rows, left.weights + right.weights)
    if isinstance(op, CrossOp):
        return bag_of((op.cross_fn(l, r), wl * wr)
                      for l, wl in zip(left.rows, left.weights)
                      for r, wr in zip(right.rows, right.weights))
    if isinstance(op, JoinOp):
        table: Dict[Any, list] = {}
        for l, wl in zip(left.rows, left.weights):
            table.setdefault(op.left_key(l), []).append((l, wl))
        return bag_of((op.join_fn(l, r), np.maximum(wl, wr))
                      for r, wr in zip(right.rows, right.weights)
                      for l, wl in table.get(op.right_key(r), ()))
    if isinstance(op, CoGroupOp):
        lg, rg = group(left.rows, op.left_key), group(right.rows, op.right_key)
        rows: list = []
        for key in dict.fromkeys(list(lg) + list(rg)):
            out = op.cogroup_fn(key, lg.get(key, []), rg.get(key, []))
            rows.extend(out if isinstance(out, list) else [out])
        return Bag(rows, [1.0] * len(rows))
    raise NotImplementedError(f"no reference for {type(op).__name__}")
