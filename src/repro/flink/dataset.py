"""The DataSet (DST) user API.

Mirrors Flink's batch API: transformations are lazy and build a logical plan;
actions (``collect``, ``count``, ``write_hdfs``) hand the plan to the session,
which compiles and executes it on the simulated cluster and returns both the
functional result and the simulated job time.

``persist()`` marks a dataset's partitions to stay resident in cluster memory
across jobs — the in-memory iteration pattern that lets the paper's iterative
workloads skip HDFS after the first pass.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.flink.iterators import (field, field_max, field_min, field_sum,
                                   vectorized as vectorized_udf)
from repro.flink.plan import (
    CoGroupOp,
    CollectSink,
    CountSink,
    CrossOp,
    DistinctOp,
    FilterOp,
    FirstNOp,
    FlatMapOp,
    GroupReduceOp,
    HdfsSink,
    JoinOp,
    KeyedReduceOp,
    MapOp,
    MapPartitionOp,
    OpCost,
    Operator,
    ReduceOp,
    SortPartitionOp,
    UnionOp,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flink.runtime import FlinkSession, JobResult

__all__ = ["DataSet", "GroupedDataSet", "OpCost", "vectorized_udf"]


class DataSet:
    """A distributed collection, lazily defined by its plan operator."""

    def __init__(self, session: "FlinkSession", op: Operator):
        self.session = session
        self.op = op

    def _derive(self, op: Operator) -> "DataSet":
        """Wrap a new plan operator in the same DataSet subclass.

        GDST (:class:`repro.core.gdst.GDST`) relies on this so CPU
        transformations of a GPU dataset stay GPU-capable.
        """
        return type(self)(self.session, op)

    # -- transformations ---------------------------------------------------------
    def map(self, udf: Callable, cost: OpCost = OpCost(),
            parallelism: Optional[int] = None, name: str = "map") -> "DataSet":
        """Element-wise transform (one in, one out)."""
        return self._derive(
                       MapOp(self.op, udf, cost, parallelism, name=name))

    def filter(self, udf: Callable, cost: OpCost = OpCost(),
               parallelism: Optional[int] = None,
               name: str = "filter") -> "DataSet":
        """Keep elements for which ``udf`` is truthy."""
        return self._derive(
                       FilterOp(self.op, udf, cost, parallelism, name=name))

    def flat_map(self, udf: Callable, cost: OpCost = OpCost(),
                 parallelism: Optional[int] = None,
                 name: str = "flat-map") -> "DataSet":
        """Element-wise transform producing zero or more outputs per input."""
        return self._derive(
                       FlatMapOp(self.op, udf, cost, parallelism, name=name))

    def map_partition(self, udf: Callable, cost: OpCost = OpCost(),
                      parallelism: Optional[int] = None,
                      name: str = "map-partition") -> "DataSet":
        """Whole-partition transform (the block-processing entry point)."""
        return self._derive(
                       MapPartitionOp(self.op, udf, cost, parallelism,
                                      name=name))

    def group_by(self, key: "Callable | int") -> "GroupedDataSet":
        """Group by a key extractor, or — Flink's ``groupBy(0)`` — by a
        field position (``group_by(0)`` is ``group_by(field(0))``); follow
        with ``reduce`` / ``reduce_group`` / ``sum`` / ``min`` / ``max``.
        The built-in contract is stated at :class:`GroupedDataSet`."""
        return GroupedDataSet(self, key if callable(key) else field(key))

    def reduce(self, reduce_fn: Callable, cost: OpCost = OpCost(),
               name: str = "reduce") -> "DataSet":
        """Global pairwise fold into a single element."""
        return self._derive(
                       ReduceOp(self.op, reduce_fn, cost, name=name))

    def join(self, other: "DataSet", left_key: Callable, right_key: Callable,
             join_fn: Callable = lambda l, r: (l, r),
             cost: OpCost = OpCost(), parallelism: Optional[int] = None,
             name: str = "join") -> "DataSet":
        """Hash equi-join with ``other``."""
        if other.session is not self.session:
            raise ValueError("cannot join datasets from different sessions")
        return self._derive(
                       JoinOp(self.op, other.op, left_key, right_key,
                              join_fn, cost, parallelism, name=name))

    def union(self, other: "DataSet", name: str = "union") -> "DataSet":
        """Concatenate with ``other`` (no shuffle: partitions are adopted)."""
        if other.session is not self.session:
            raise ValueError("cannot union datasets from different sessions")
        return self._derive(UnionOp(self.op, other.op, name=name))

    def distinct(self, key_fn: Optional[Callable] = None,
                 cost: OpCost = OpCost(),
                 parallelism: Optional[int] = None,
                 name: str = "distinct") -> "DataSet":
        """Deduplicate elements (by ``key_fn``, or by value)."""
        return self._derive(DistinctOp(self.op, key_fn, cost, parallelism,
                                       name=name))

    def first(self, n: int) -> "DataSet":
        """Any ``n`` elements of the dataset (one output partition)."""
        return self._derive(FirstNOp(self.op, n))

    def sort_partition(self, key_fn: Optional[Callable] = None,
                       reverse: bool = False, cost: OpCost = OpCost(),
                       name: str = "sort-partition") -> "DataSet":
        """Sort every partition locally (no global order, as in Flink)."""
        return self._derive(SortPartitionOp(self.op, key_fn, reverse, cost,
                                            name=name))

    def cross(self, other: "DataSet",
              cross_fn: Callable = lambda l, r: (l, r),
              cost: OpCost = OpCost(), parallelism: Optional[int] = None,
              name: str = "cross") -> "DataSet":
        """Cartesian product with ``other`` (right side broadcast)."""
        if other.session is not self.session:
            raise ValueError("cannot cross datasets from different sessions")
        return self._derive(CrossOp(self.op, other.op, cross_fn, cost,
                                    parallelism, name=name))

    def co_group(self, other: "DataSet", left_key: Callable,
                 right_key: Callable,
                 cogroup_fn: Callable, cost: OpCost = OpCost(),
                 parallelism: Optional[int] = None,
                 name: str = "co-group") -> "DataSet":
        """Group both datasets by key and apply
        ``cogroup_fn(key, left_members, right_members)`` per key."""
        if other.session is not self.session:
            raise ValueError(
                "cannot co-group datasets from different sessions")
        return self._derive(CoGroupOp(self.op, other.op, left_key,
                                      right_key, cogroup_fn, cost,
                                      parallelism, name=name))

    # -- aggregate shorthands ----------------------------------------------------
    def sum(self, value_fn: Callable = lambda x: x,
            name: str = "sum") -> "DataSet":
        """Global sum of ``value_fn(element)``."""
        return self.map(value_fn, name=f"{name}-extract") \
            .reduce(lambda a, b: a + b, name=name)

    def min(self, key_fn: Callable = lambda x: x,
            name: str = "min") -> "DataSet":
        """Global minimum by ``key_fn``."""
        return self.reduce(lambda a, b: a if key_fn(a) <= key_fn(b) else b,
                           name=name)

    def max(self, key_fn: Callable = lambda x: x,
            name: str = "max") -> "DataSet":
        """Global maximum by ``key_fn``."""
        return self.reduce(lambda a, b: a if key_fn(a) >= key_fn(b) else b,
                           name=name)

    def iterate(self, n_iterations: int,
                step_fn: Callable[["DataSet"], "DataSet"]) -> "DataSet":
        """Flink-style bulk iteration: apply ``step_fn`` ``n`` times *inside
        one job*.

        The loop body is unrolled into the plan, so a single job submission
        covers all iterations — this is how native Flink iterations avoid
        the per-iteration driver round-trip that per-job loops pay
        (``benchmarks/bench_ablation_iteration.py`` quantifies it).  Loop
        state must flow through the dataset; driver-side state (e.g. KMeans
        centers updated in Python between steps) needs the per-job pattern
        instead.
        """
        if n_iterations < 1:
            raise ValueError(
                f"iterate needs n_iterations >= 1, got {n_iterations}")
        ds: "DataSet" = self
        for _ in range(n_iterations):
            ds = step_fn(ds)
            if not isinstance(ds, DataSet):
                raise TypeError("step_fn must return a DataSet")
        return ds

    def persist(self) -> "DataSet":
        """Keep this dataset's partitions in cluster memory across jobs."""
        self.op.persisted = True
        return self

    # -- actions -------------------------------------------------------------------
    # Each action has two forms: the blocking one (drives the simulation
    # clock; for sequential drivers and tests) and a ``*_job`` generator
    # (to ``yield from`` inside a driver process, so multiple applications
    # can share the cluster concurrently).

    def collect(self, job_name: str = "collect") -> "JobResult":
        """Execute and gather all elements to the driver."""
        return self.session.execute(CollectSink(self.op), job_name=job_name)

    def collect_job(self, job_name: str = "collect"):
        """Process form of :meth:`collect`."""
        return self.session.execute_job(CollectSink(self.op),
                                        job_name=job_name)

    def count(self, job_name: str = "count") -> "JobResult":
        """Execute and return the (nominal) element count."""
        return self.session.execute(CountSink(self.op), job_name=job_name)

    def count_job(self, job_name: str = "count"):
        """Process form of :meth:`count`."""
        return self.session.execute_job(CountSink(self.op), job_name=job_name)

    def write_hdfs(self, path: str,
                   job_name: Optional[str] = None) -> "JobResult":
        """Execute and write one HDFS block per partition to ``path``."""
        return self.session.execute(
            HdfsSink(self.op, path),
            job_name=job_name or f"write({path})")

    def write_hdfs_job(self, path: str, job_name: Optional[str] = None):
        """Process form of :meth:`write_hdfs`."""
        return self.session.execute_job(
            HdfsSink(self.op, path), job_name=job_name or f"write({path})")

    def materialize(self, job_name: str = "materialize") -> "JobResult":
        """Execute the plan up to this dataset, keeping partitions on workers.

        Equivalent to persist-then-touch: useful to pay the load phase once
        before timing iterations.
        """
        self.persist()
        return self.count(job_name=job_name)

    def materialize_job(self, job_name: str = "materialize"):
        """Process form of :meth:`materialize`."""
        self.persist()
        return self.count_job(job_name=job_name)


class GroupedDataSet:
    """A dataset grouped by key — an intermediate builder, as in Flink.

    **Built-in keys and aggregates** (``group_by(0).sum(1)``, i.e.
    :class:`~repro.flink.iterators.field` and
    :func:`~repro.flink.iterators.field_sum` / ``field_min`` /
    ``field_max``).  *Row call*: they are ordinary element UDFs —
    ``field(0)(row) == row[0]``, ``field_sum(1)(a, b)`` is ``a`` with field
    1 replaced by ``a[1] + b[1]`` — so any path that does not know them
    (join keys, ``reduce_group``, a row list) just calls them.  *Block
    call*: handed a 2-D or GStruct block, the engine asks the pair once per
    keyed pass instead — one key column (field position = column, or field
    in declaration order; an all-integral float column counts as the ints it
    equals), one stable sort, one left fold per segment — with the reducer
    contract of :meth:`reduce` kept bit for bit.  *The marker*:
    ``vectorized(field(0))`` / ``vectorized(field_sum(1))`` select the SIMD
    and zero-copy **prices**, exactly as on a lambda; unmarked, the pair is
    charged per element and per row like the lambdas it replaces.  The
    marker does not change what the host does with a block, and no marker
    changes a value.  *Output*: a marked pair's result stays a block; an
    unmarked pair's is lowered once per consumer subtask, a column at a
    time, to tuples of Python scalars (a GStruct block's fields keep their
    own types, a 2-D block's rows its one dtype) — what the element path
    emits, so everything downstream sees and prices a row list.
    """

    def __init__(self, dataset: DataSet, key_fn: Callable):
        self.dataset = dataset
        self.key_fn = key_fn

    def reduce(self, reduce_fn: Callable, cost: OpCost = OpCost(),
               parallelism: Optional[int] = None, combinable: bool = True,
               name: str = "keyed-reduce") -> DataSet:
        """Pairwise fold per key (combinable on the shuffle's producer side).

        The reducer contract: ``reduce_fn(acc, row)`` is **pure and
        associative**; every key's rows are folded **left to right in row
        order**, seeded with the key's first row; and a **one-row group is
        its row** — it is never passed through ``reduce_fn``.  Associative,
        because a combinable reduce folds once per producer partition and
        again over the partials at the consumer; pure, because the engine
        reduces on insert (:func:`repro.flink.iterators.fold_by_key`), so
        calls for different keys interleave in row order.  A
        ``vectorized()`` pair honours the same fold per segment
        (:func:`repro.flink.iterators.vectorized`).
        """
        return self.dataset._derive(
                       KeyedReduceOp(self.dataset.op, self.key_fn, reduce_fn,
                                     cost, parallelism, combinable=combinable,
                                     name=name))

    def sum(self, index: int, **reduce_kw) -> DataSet:
        """Per key, the first row with field ``index`` summed over the
        group (Flink's ``aggregate(SUM, index)``); keywords as for
        :meth:`reduce`."""
        return self.reduce(field_sum(index), **reduce_kw)

    def min(self, index: int, **reduce_kw) -> DataSet:
        """Per key, the first row with the group's smallest field
        ``index``."""
        return self.reduce(field_min(index), **reduce_kw)

    def max(self, index: int, **reduce_kw) -> DataSet:
        """Per key, the first row with the group's largest field
        ``index``."""
        return self.reduce(field_max(index), **reduce_kw)

    def reduce_group(self, group_fn: Callable[[Any, list], Any],
                     cost: OpCost = OpCost(),
                     parallelism: Optional[int] = None,
                     name: str = "group-reduce") -> DataSet:
        """Full-group function ``group_fn(key, members)`` per key."""
        return self.dataset._derive(
                       GroupReduceOp(self.dataset.op, self.key_fn, group_fn,
                                     cost, parallelism, name=name))
