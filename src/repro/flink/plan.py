"""Logical plan: operator DAG built by the DataSet API.

Each operator knows how to execute one of its subtasks as a simulation
process, given a :class:`~repro.flink.jobmanager.TaskContext` and its input
partitions.  GPU operators in :mod:`repro.core.gdst` subclass
:class:`Operator` and override :meth:`Operator.execute_subtask`, which is the
whole integration surface — exactly the paper's claim that GFlink is
"compatible with the compile-time and run-time of Flink".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Generator, List, Optional, TYPE_CHECKING

from repro.common.errors import ConfigError
from repro.flink.iterators import (
    apply_grouped_reduce,
    apply_map,
    apply_reduce,
    is_vectorized,
)
from repro.flink.partition import Partition
from repro.flink.payload import concat, real_len, to_tuples

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flink.jobmanager import TaskContext


class ShipStrategy(Enum):
    """How a consumer subtask obtains its share of a producer's output."""

    FORWARD = "forward"      # partition i -> subtask i, locality preserved
    HASH = "hash"            # repartition by key hash (shuffle)
    GATHER = "gather"        # everything to a single subtask
    REBALANCE = "rebalance"  # round-robin even redistribution

    @property
    def is_streaming(self) -> bool:
        """True for edges the pipelined executor streams block-by-block.

        A forward edge preserves partitioning, so a consumer subtask can
        start as soon as its one producer starts emitting.
        Hash/gather/rebalance edges need *every* producer partition before
        any consumer record is routable — they are the true pipeline-region
        barriers (hash-shuffle build sides, iteration supersteps).
        """
        return self is ShipStrategy.FORWARD


@dataclass(frozen=True)
class OpCost:
    """Cost declaration for a user function.

    flops_per_element
        Arithmetic work per (nominal) element — drives CPU/GPU compute time.
    out_element_nbytes
        Nominal serialized size of an output element (None = same as input).
    element_overhead_s
        Per-element iterator/virtual-call overhead for this UDF, overriding
        the engine default.  Object-heavy UDFs (sparse rows, tuple chains)
        cost microseconds per element on the JVM — the very overhead the
        paper's GPU path eliminates — while primitive-array UDFs are far
        cheaper.
    """

    flops_per_element: float = 1.0
    out_element_nbytes: Optional[float] = None
    element_overhead_s: Optional[float] = None


_op_counter = itertools.count()


class Operator:
    """A node of the logical plan."""

    def __init__(self, name: str, inputs: List["Operator"],
                 parallelism: Optional[int],
                 strategies: List[ShipStrategy],
                 cost: OpCost = OpCost()):
        if len(inputs) != len(strategies):
            raise ConfigError("one ship strategy per input required")
        self.uid = next(_op_counter)
        self.name = name
        self.inputs = inputs
        self.parallelism = parallelism  # None = inherit default at compile
        self.strategies = strategies
        self.cost = cost
        self.persisted = False

    # -- plan helpers ---------------------------------------------------------
    def key_fn_for_input(self, i: int) -> Optional[Callable]:
        """Key extractor used when input ``i`` ships with HASH (or None)."""
        return None

    def combiner_for_input(self, i: int):
        """Optional ``(key_fn, reduce_fn)`` pre-combiner for input ``i``
        (``key_fn`` None: fold each producer's payload to one partial)."""
        return None

    # -- runtime ------------------------------------------------------------------
    def execute_subtask(self, ctx: "TaskContext",
                        inputs: List[Partition]
                        ) -> Generator[Any, Any, Partition]:
        """Simulation process executing one subtask; returns its output."""
        raise NotImplementedError

    def out_element_nbytes(self, input_partition: Partition | None) -> float:
        """Nominal per-element output size."""
        if self.cost.out_element_nbytes is not None:
            return self.cost.out_element_nbytes
        if input_partition is not None:
            return input_partition.element_nbytes
        return 8.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} #{self.uid} {self.name!r}>"


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------

class CollectionSource(Operator):
    """A dataset created from an in-driver collection.

    The collection is shipped from the master to the workers once, paying
    serialization and network time.
    """

    def __init__(self, elements: Any, element_nbytes: float,
                 scale: float = 1.0, parallelism: Optional[int] = None,
                 name: str = "collection-source"):
        super().__init__(name, [], parallelism, [])
        self.elements = elements
        self.element_nbytes = element_nbytes
        self.scale = scale

    def execute_subtask(self, ctx, inputs):
        part = ctx.preassigned_partition
        # Master -> worker shipping of this slice of the collection.
        nbytes = part.nominal_nbytes
        yield ctx.env.timeout(ctx.serializer.serialize_time(
            nbytes, part.nominal_count))
        yield from ctx.network.transfer(ctx.master_name, ctx.worker.name,
                                        int(nbytes))
        yield ctx.env.timeout(ctx.serializer.deserialize_time(
            nbytes, part.nominal_count))
        out = part.derive(part.elements)
        # A retried attempt may have been re-placed: the output lives where
        # the subtask actually ran, not where the slice was first assigned.
        out.worker = ctx.worker.name
        return out


class HdfsSource(Operator):
    """A dataset read from HDFS, block by block, locality-aware.

    A block's payload is its elements.  Subtask *i* reads the blocks
    assigned to it by the scheduler (stored in ``ctx.assigned_blocks``).
    """

    def __init__(self, path: str, element_nbytes: float,
                 scale: float = 1.0, parallelism: Optional[int] = None,
                 name: Optional[str] = None):
        super().__init__(name or f"hdfs-source({path})", [], parallelism, [])
        self.path = path
        self.element_nbytes = element_nbytes
        self.scale = scale

    def execute_subtask(self, ctx, inputs):
        payload_parts = []
        for block in ctx.assigned_blocks:
            payload = yield from ctx.hdfs.read_block(block, ctx.worker.name)
            payload_parts.append(payload)
        elements = concat(payload_parts)
        # Deserialization from HDFS bytes into objects.
        n = real_len(elements) * self.scale
        yield ctx.env.timeout(ctx.serializer.deserialize_time(
            n * self.element_nbytes, n))
        return Partition(index=ctx.subtask_index, elements=elements,
                         element_nbytes=self.element_nbytes,
                         scale=self.scale, worker=ctx.worker.name)

    def peek_output(self, blocks, subtask_index: int,
                    worker: Optional[str]) -> Partition:
        """The partition this subtask will produce, with no time charged.

        Block *metadata* carries the payload (the simulation stores real
        sample data by reference), so the functional value of a source
        partition is known the moment blocks are assigned.  The pipelined
        executor uses this "data plane" view to wire downstream consumers
        while the "timing plane" still streams disk reads block by block;
        :meth:`execute_subtask` and :meth:`execute_streaming` return a
        bit-identical partition.
        """
        elements = concat([b.payload for b in blocks])
        return Partition(index=subtask_index, elements=elements,
                         element_nbytes=self.element_nbytes,
                         scale=self.scale, worker=worker)

    def execute_streaming(self, ctx, stream):
        """Pipelined subtask body: sub-block read + deserialize + publish.

        Identical charges to :meth:`execute_subtask` — the same per-block
        disk spans (their linear portion sliced at sub-block marks, sum
        unchanged) and the same per-block deserialize total (split across
        sub-blocks, last absorbing rounding) — but each sub-block is
        published into ``stream`` the moment its bytes are host-resident
        *and* its deserialize share has been charged, so downstream
        operators overlap with the read.  A side "reader" process charges
        the disk/network time and runs at most one HDFS block ahead of
        publication (bounded read-ahead); the publish loop stalls on
        backpressure when the bounded queue is full.
        """
        from repro.common.simclock import Event

        env = ctx.env
        blocks = ctx.assigned_blocks
        # Recover the per-HDFS-block sub-chunk grouping from the stream's
        # plan (the executor built that plan by splitting exactly these
        # blocks): per block, the chunk marks as offsets within the block.
        eps = 1e-6 * max(1.0, stream.total_nbytes)
        groups: List[tuple] = []   # (first chunk index, marks within block)
        offsets: List[float] = []  # cumulative bytes before each block
        chunk, base = 0, 0.0
        for block in blocks:
            end = base + block.nbytes
            first, marks = chunk, []
            while (chunk < stream.n_blocks
                   and stream.cum_nbytes(chunk + 1) <= end + eps):
                marks.append(stream.cum_nbytes(chunk + 1) - base)
                chunk += 1
            groups.append((first, marks))
            offsets.append(base)
            base = end
        # Data plane is eager (replica payloads are held by reference on
        # block metadata), so every block's deserialize charge is known
        # before its read even starts — required to publish mid-read.
        payloads = [b.payload for b in blocks]
        deser = []
        for p in payloads:
            n = real_len(p) * self.scale
            deser.append(ctx.serializer.deserialize_time(
                n * self.element_nbytes, n))

        state = {"avail": 0.0, "err": None, "evt": Event(env)}

        def _notify():
            evt = state["evt"]
            state["evt"] = Event(env)
            if not evt.triggered:
                evt.succeed()

        def reader():
            try:
                for b_idx, block in enumerate(blocks):
                    first, marks = groups[b_idx]
                    if first < stream.n_blocks:
                        # Bounded read-ahead: hold the next block's read
                        # until its first sub-block could be published.
                        yield stream.reserve(first)

                    def on_chunk(cum, _base=offsets[b_idx]):
                        state["avail"] = _base + cum
                        _notify()

                    yield from ctx.hdfs.read_block(
                        block, ctx.worker.name, (marks, on_chunk))
                    state["avail"] = offsets[b_idx] + block.nbytes
                    _notify()
            except BaseException as exc:  # noqa: BLE001 — forwarded
                state["err"] = exc
                _notify()

        env.process(reader(),
                    name=f"{self.name}[{ctx.subtask_index}]:reader")

        for b_idx, block in enumerate(blocks):
            first, marks = groups[b_idx]
            charged = 0.0
            span = block.nbytes or 1.0
            for j, mark in enumerate(marks):
                while (state["err"] is None
                       and state["avail"] + eps < offsets[b_idx] + mark):
                    yield state["evt"]
                if state["err"] is not None:
                    raise state["err"]
                target = (deser[b_idx] if j == len(marks) - 1
                          else deser[b_idx] * mark / span)
                if target > charged:
                    yield env.timeout(target - charged)
                    charged = target
                yield from ctx.stream_reserve(stream, first + j)
                stream.publish(first + j)
        stream.close()
        elements = concat(payloads)
        return Partition(index=ctx.subtask_index, elements=elements,
                         element_nbytes=self.element_nbytes,
                         scale=self.scale, worker=ctx.worker.name)


# ---------------------------------------------------------------------------
# Element-wise transforms
# ---------------------------------------------------------------------------

class _StageChain(Operator):
    """An ordered list of single-UDF stages run by one task.

    ``map`` / ``mapPartition`` are each the chain
    of one (``stages == [self]``, set here); the optimizer's
    :class:`~repro.flink.optimizer.FusedMapOp` is the constructor of longer
    ones.  A stage is priced by its ``cost`` and ``udf``, computed by
    ``_transform`` and sized by ``out_element_nbytes`` / ``_output_scale``.
    """

    def __init__(self, source: Operator, udf: Optional[Callable],
                 cost: OpCost, parallelism: Optional[int] = None,
                 name: str = "element-wise"):
        super().__init__(name, [source], parallelism,
                         [ShipStrategy.FORWARD], cost)
        self.udf = udf
        self.stages: List[_StageChain] = [self]

    def _transform(self, elements: Any) -> Any:
        raise NotImplementedError

    def _output_scale(self, part: Partition, out_elements: Any) -> float:
        raise NotImplementedError

    def execute_subtask(self, ctx, inputs):
        """The one stage loop: charge, transform, wrap — stage by stage."""
        (part,) = inputs
        for stage in self.stages:
            yield from ctx.charge(stage.cost, part.nominal_count,
                                  part.nominal_nbytes, stage.udf)
            part = stage.functional_output(part, ctx.subtask_index,
                                           ctx.worker.name)
        return part

    def functional_output(self, part: Partition, subtask_index: int,
                          worker: Optional[str]) -> Partition:
        """One turn of the stage loop with no simulated time charged.

        The pipelined executor evaluates this early (UDFs are pure in the
        simulation) so downstream consumers can be wired up while this
        operator's timing plane is still streaming; the subtask's own
        :meth:`execute_subtask` produces a bit-identical partition.
        """
        out_elements = self._transform(part.elements)
        out_scale = self._output_scale(part, out_elements)
        return Partition(index=subtask_index, elements=out_elements,
                         element_nbytes=self.out_element_nbytes(part),
                         scale=out_scale, worker=worker)


class MapOp(_StageChain):
    """``map``: one-in one-out element transform, iterator-model CPU
    execution one element at a time — the operator whose block stream the
    executor relays."""

    def _transform(self, elements):
        return apply_map(elements, self.udf)

    def _output_scale(self, part: Partition, out_elements: Any) -> float:
        return part.scale


class MapPartitionOp(_StageChain):
    """``mapPartition``: the UDF sees the whole partition at once.

    This is the CPU-side analogue of the block-processing model — and the
    operator GFlink's ``gpuMapPartition`` overrides (paper Algorithm 3.1).
    """

    def _transform(self, elements: Any) -> Any:
        return self.udf(elements)

    def _output_scale(self, part: Partition, out_elements: Any) -> float:
        return partition_output_scale(part, real_len(out_elements))


def partition_output_scale(part: Partition, out_real: int) -> float:
    """The nominal scale of a partition function's output, CPU
    (``map_partition``) or GPU (``gpu_map_partition``) alike.

    An output with the input's real row count is map-style (one out per
    in) and keeps the input's scale; any other is aggregating (partial
    sums, histograms): its rows are *real* records and carry scale 1.
    The rule is applied per partition, so a function that changes the row
    count in some partitions only gives a nominal count that depends on
    the parallelism (``tests/reference/test_plans.py`` pins it as a strict
    xfail).
    """
    return part.scale if out_real == part.real_count else 1.0


# ---------------------------------------------------------------------------
# Keyed / global aggregations
# ---------------------------------------------------------------------------

class KeyedReduceOp(Operator):
    """``groupBy(key).reduce(fn)`` — combinable keyed aggregation.

    The shuffle path applies ``fn`` as a pre-combiner on the producer side
    (Flink's combinable GroupReduce), so only one record per key per producer
    partition crosses the network — this is why KMeans "only shuffles centers
    in each iteration" (paper §6.5).  What ``fn`` may assume and must
    guarantee is stated once, at
    :meth:`repro.flink.dataset.GroupedDataSet.reduce`.
    """

    def __init__(self, source: Operator, key_fn: Callable,
                 reduce_fn: Callable, cost: OpCost,
                 parallelism: Optional[int] = None,
                 combinable: bool = True, name: str = "keyed-reduce"):
        super().__init__(name, [source], parallelism,
                         [ShipStrategy.HASH], cost)
        self.key_fn = key_fn
        self.reduce_fn = reduce_fn
        self.combinable = combinable

    def key_fn_for_input(self, i):
        return self.key_fn

    def combiner_for_input(self, i):
        return (self.key_fn, self.reduce_fn) if self.combinable else None

    def execute_subtask(self, ctx, inputs):
        (part,) = inputs
        yield from ctx.charge(self.cost, part.nominal_count,
                              part.nominal_nbytes,
                              self.key_fn, self.reduce_fn)
        # A vectorized key/reduce pair runs once over the segment-sorted
        # block and returns a block (zero-copy continues downstream); an
        # element pair is one reduce-on-insert pass over the rows.
        out = apply_grouped_reduce(part.elements, self.key_fn,
                                   self.reduce_fn)
        if not is_vectorized(self.reduce_fn):
            # An unmarked built-in pair folded a block: hand on the rows
            # the element path emits, so every exchange downstream prices
            # off a row list.  (A row list passes through.)
            out = to_tuples(out)
        # One output record per key: the nominal count collapses to the real
        # group count (keys are not sub-sampled by scaling).
        return Partition(index=ctx.subtask_index, elements=out,
                         element_nbytes=self.out_element_nbytes(part),
                         scale=1.0, worker=ctx.worker.name)


class ReduceOp(Operator):
    """Global ``reduce``: local partial fold, then final fold on one subtask."""

    def __init__(self, source: Operator, reduce_fn: Callable, cost: OpCost,
                 name: str = "reduce"):
        super().__init__(name, [source], 1, [ShipStrategy.GATHER], cost)
        self.reduce_fn = reduce_fn

    def combiner_for_input(self, i):
        # Gather with pre-fold: each producer sends a single partial, its
        # payload folded as this subtask folds (``apply_reduce``).
        return None, self.reduce_fn

    def execute_subtask(self, ctx, inputs):
        (part,) = inputs
        yield from ctx.charge(self.cost, part.nominal_count,
                              part.nominal_nbytes, self.reduce_fn)
        result = apply_reduce(part.elements, self.reduce_fn)
        out = [] if result is None else [result]
        return Partition(index=0, elements=out,
                         element_nbytes=self.out_element_nbytes(part),
                         scale=1.0, worker=ctx.worker.name)


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------

class CollectSink(Operator):
    """Gather all elements to the driver (the job's return value)."""

    def __init__(self, source: Operator, name: str = "collect"):
        super().__init__(name, [source], 1, [ShipStrategy.GATHER])

    def execute_subtask(self, ctx, inputs):
        (part,) = inputs
        # Ship to the master.
        nbytes = part.nominal_nbytes
        yield ctx.env.timeout(ctx.serializer.serialize_time(
            nbytes, part.nominal_count))
        yield from ctx.network.transfer(ctx.worker.name, ctx.master_name,
                                        int(nbytes))
        return Partition(index=0, elements=list(part.elements),
                         element_nbytes=part.element_nbytes,
                         scale=part.scale, worker=ctx.master_name)


class CountSink(Operator):
    """Count elements; only per-partition counts travel to the master."""

    def __init__(self, source: Operator, name: str = "count"):
        super().__init__(name, [source], 1, [ShipStrategy.GATHER])

    def combiner_for_input(self, i):
        from repro.flink.shuffle import COUNT_COMBINER
        return COUNT_COMBINER

    def execute_subtask(self, ctx, inputs):
        (part,) = inputs
        yield from ctx.network.transfer(ctx.worker.name, ctx.master_name, 8)
        total = float(sum(part.elements))
        return Partition(index=0, elements=[total],
                         element_nbytes=8.0, scale=1.0,
                         worker=ctx.master_name)


class HdfsSink(Operator):
    """Write each partition of the input as one HDFS block."""

    def __init__(self, source: Operator, path: str,
                 parallelism: Optional[int] = None):
        super().__init__(f"hdfs-sink({path})", [source], parallelism,
                         [ShipStrategy.FORWARD])
        self.path = path

    def execute_subtask(self, ctx, inputs):
        (part,) = inputs
        nbytes = part.nominal_nbytes
        yield ctx.env.timeout(ctx.serializer.serialize_time(
            nbytes, part.nominal_count))
        yield from ctx.hdfs_append(self.path, part.elements, int(nbytes))
        return Partition(index=ctx.subtask_index, elements=[],
                         element_nbytes=0.0, scale=1.0,
                         worker=ctx.worker.name)


def topological_order(sinks: List[Operator]) -> List[Operator]:
    """All operators reachable from ``sinks`` in dependency order."""
    order: List[Operator] = []
    seen: set[int] = set()
    visiting: set[int] = set()

    def visit(op: Operator) -> None:
        if op.uid in seen:
            return
        if op.uid in visiting:
            raise ConfigError(f"cycle in plan at {op!r}")
        visiting.add(op.uid)
        for parent in op.inputs:
            visit(parent)
        visiting.discard(op.uid)
        seen.add(op.uid)
        order.append(op)

    for sink in sinks:
        visit(sink)
    return order
