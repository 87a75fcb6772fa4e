"""Retired payload helpers, bucketing routines and shipping loops, kept as
test oracles.

Until PR 17 the ``list | ndarray | None`` decision was re-made in seven
modules of ``repro.flink`` / ``repro.core``; every helper below is one of
those copies, verbatim from the commit that retired it, and the
differential tests hold :mod:`repro.flink.payload` and
:meth:`repro.flink.shuffle.Exchange._buckets` to them (in the style of
``group_elements`` for the segmented path, ``barriered()`` for the
pipelined clock and ``heap_only()`` for zero-wait events).  The last
section is the shipping path as it was until PR 18 — one timeout per
serde charge, one ``all_of`` per transfer — which
``test_shipping_differential.py`` holds :meth:`Exchange._send` and
:meth:`repro.common.network.Network.transfer` to.  After it, the three CPU
subtask bodies the one stage loop replaced, and the group-then-fold
compositions of the element keyed reduce that
:func:`repro.flink.iterators.fold_by_key` replaced
(``test_keyed_fold_differential.py``), and the block → tuples lift the
element-priced workloads ran before their keyed stage until PR 23
(``tests/workloads/test_block_tuples.py``).  Nothing under ``src/`` may
import this module.
"""

from typing import (Any, Callable, Dict, Generator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.common.errors import ConfigError
from repro.common.simclock import Event
from repro.flink.iterators import (apply_reduce, group_elements,
                                   is_vectorized)
from repro.flink.partition import Partition
from repro.flink.payload import (bucket_plan, group_plan, key_column,
                                 n_wire_blocks, real_len, to_block)
from repro.flink.plan import (DistinctOp, Operator, ShipStrategy,
                              _ElementWise)
from repro.flink.shuffle import COUNT_COMBINER, Exchange, hash_bucket
from tests.common.retired import TurnNetwork


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
        return grouped_reduce(bucket, key_fn, reduce_fn)


# -- the shipping path: a timeout per charge, an all_of per transfer --------------

class PerChargeExchange(Exchange):
    """An :class:`Exchange` that ships the way ``shuffle.py`` did before the
    one sender loop: ``_send_buckets`` / ``_broadcast_one`` / a process per
    moved partition, each through ``_ship_payload`` — serialize, move and
    deserialize as three separate events per destination payload, loopback
    included.  The three ``_run_*`` drivers are here because they are what
    called them; bucketing, pricing, merging and spilling are the engine's."""

    def _run_point_to_point(self) -> Generator[Event, None, List[Partition]]:
        """Partition *i* feeds subtask ``offset + i`` whole.

        FORWARD and UNION_LEFT map partition *i* onto subtask *i*,
        UNION_RIGHT onto the last ``len(producers)`` subtasks; every other
        subtask receives ``None`` for this input (a union subtask reads
        exactly one side).  A partition already on its consumer's worker
        does not move.
        """
        q = self.n_consumers
        if self.strategy is ShipStrategy.FORWARD and len(self.producers) != q:
            raise ValueError(
                f"FORWARD needs equal parallelism: {len(self.producers)} "
                f"producers vs {q} consumers")
        offset = (q - len(self.producers)
                  if self.strategy is ShipStrategy.UNION_RIGHT else 0)
        inputs: List[Optional[Partition]] = [None] * q
        moves = []
        for i, part in enumerate(self.producers):
            j = offset + i
            if not self._want(j):
                continue
            moved = part.derive(part.elements)
            moved.index = j
            moved.worker = self.consumer_workers[j]
            inputs[j] = moved
            if part.worker != moved.worker:
                moves.append(self.env.process(
                    self._ship_payload(part.worker, moved.worker,
                                       part.nominal_nbytes,
                                       part.nominal_count, part.elements,
                                       zero_copy=False),
                    name=f"{self.strategy.value}-{i}"))
        if moves:
            yield self.env.all_of(moves)
        return inputs

    def _run_routed(self) -> Generator[Event, None, List[Partition]]:
        q = self.n_consumers
        keys = self._key_columns()
        zero_copy = self._zero_copy(keys)
        # Per consumer: one bucket per producer, and what they stand for.
        parts: List[List[Any]] = [[] for _ in range(q)]
        nominal, nominal_nbytes = [0.0] * q, [0.0] * q
        senders = []
        for part, part_keys in zip(self.producers, keys):
            buckets = self._buckets(part, part_keys)
            if self.combiner is COUNT_COMBINER:
                buckets = [[real_len(b) * part.scale] for b in buckets]
                counts = [1.0 for _ in buckets]
                element_nbytes = 8.0  # partial counts travel as one long each
            else:
                # Combined buckets are still samples: each real group stands
                # for `scale` nominal groups, so shipped counts keep the
                # producer's scale.
                counts = [real_len(b) * part.scale for b in buckets]
                element_nbytes = part.element_nbytes
            for j, (bucket, count) in enumerate(zip(buckets, counts)):
                parts[j].append(bucket)
                nominal[j] += count
                nominal_nbytes[j] += count * element_nbytes
            senders.append(self.env.process(
                self._send_buckets(part, buckets, counts, element_nbytes,
                                   zero_copy),
                name=f"shuffle-send-{part.index}"))
        if senders:
            yield self.env.all_of(senders)
        unit = (8.0 if self.combiner is COUNT_COMBINER
                else self._producer_element_nbytes())
        return [self._consumer_input(j, self._merge(parts[j], zero_copy),
                                     nominal[j], nominal_nbytes[j], unit)
                if self._want(j) else None for j in range(q)]

    def _send_buckets(self, part: Partition, buckets: List[Any],
                      counts: List[float], element_nbytes: float,
                      zero_copy: bool) -> Generator[Event, None, None]:
        # Pre-combine compute is charged by the caller via the combiner's
        # operator cost; here we charge shipping: serialize once, then wire
        # time per destination.
        for j, (bucket, count) in enumerate(zip(buckets, counts)):
            if count <= 0 or not self._want(j):
                continue
            nbytes = count * element_nbytes
            dst = self.consumer_workers[j]
            yield from self._ship_payload(
                part.worker, dst, nbytes, count, bucket, zero_copy,
                spill_tag=f"{part.index}-{j}")

    def _run_broadcast(self) -> Generator[Event, None, List[Partition]]:
        zero_copy = self._block_payloads()
        senders = []
        total_nbytes = sum(p.nominal_nbytes for p in self.producers)
        total_count = sum(p.nominal_count for p in self.producers)
        for part in self.producers:
            senders.append(self.env.process(
                self._broadcast_one(part, zero_copy),
                name=f"bcast-{part.index}"))
        if senders:
            yield self.env.all_of(senders)
        merged = self._merge([p.elements for p in self.producers], zero_copy)
        # Every consumer deserializes its own copy of the rows; a zero-copy
        # block is one region they all read.
        return [self._consumer_input(
                    j, merged if zero_copy else list(merged), total_count,
                    total_nbytes, self._producer_element_nbytes())
                if self._want(j) else None
                for j in range(self.n_consumers)]

    def _broadcast_one(self, part: Partition, zero_copy: bool
                       ) -> Generator[Event, None, None]:
        wanted = [(j, dst) for j, dst in enumerate(self.consumer_workers)
                  if self._want(j)]
        seen = set()
        for j, dst in wanted:
            if dst in seen:
                continue
            seen.add(dst)
            yield from self._ship_payload(
                part.worker, dst, part.nominal_nbytes, part.nominal_count,
                part.elements, zero_copy, spill_tag=f"b{part.index}-{j}")

    def _ship_payload(self, src: str, dst: str, nbytes: float, count: float,
                      payload: Any, zero_copy: bool,
                      spill_tag: Optional[str] = None
                      ) -> Generator[Event, None, None]:
        """Move one destination payload under its price list.

        A payload that carries a ``spill_tag`` (routed and broadcast
        edges) goes through HDFS instead of direct exchange buffers when
        oversized; point-to-point edges carry none and never spill.
        """
        blocks = 0
        if zero_copy:
            blocks = n_wire_blocks(payload, nbytes,
                                   self.flink.pipeline_block_nbytes)
            # Sender frames block descriptors; bytes bypass serde entirely.
            yield self.env.timeout(
                self.serializer.zero_copy_time(nbytes, blocks))
        else:
            yield self.env.timeout(
                self.serializer.serialize_time(nbytes, count))
        if (spill_tag is not None and self.hdfs is not None
                and nbytes > self.flink.shuffle_spill_nbytes):
            yield from self._spill(src, dst, nbytes, spill_tag)
        else:
            yield from self.network.transfer(src, dst, int(nbytes))
        if zero_copy:
            # Receiver re-parses the block descriptors; no per-row deser.
            yield self.env.timeout(blocks * self.serializer.block_header_s)
        else:
            yield self.env.timeout(
                self.serializer.deserialize_time(nbytes, count))
        if src != dst:
            self.bytes_shuffled += nbytes
        if zero_copy:
            self.bytes_zero_copy += nbytes


class AllOfNetwork(TurnNetwork):
    """A :class:`Network` whose ``transfer`` joins its two port requests
    through ``all_of``: one composite event (and one ``ConditionValue``) per
    cross-node transfer, free ports or not.  Its ports are the unit
    ``Resource`` s of :class:`tests.common.retired.TurnNetwork`."""

    def transfer(self, src: str, dst: str, nbytes: int,
                 progress: Optional[
                     Tuple[Sequence[float], Callable[[float], None]]
                 ] = None) -> Generator[Event, None, None]:
        """Simulation process: move ``nbytes`` from ``src`` to ``dst``.

        Charges wire time on both endpoints' ports; a loopback transfer is
        charged at memcpy speed without touching the NIC.

        ``progress``, when given, is ``(marks, callback)``: cumulative byte
        offsets at which ``callback(cum)`` fires as the wire time elapses.
        The wire charge is sliced per mark with an identical sum, so total
        network time is unchanged; the pipelined executor uses the callback
        to publish a remote read's byte prefix as it lands.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if src not in self._egress:
            raise ConfigError(f"unknown source node {src!r}")
        if dst not in self._ingress:
            raise ConfigError(f"unknown destination node {dst!r}")
        if src == dst:
            yield from self._charge(nbytes / self.config.loopback_bps,
                                    nbytes, progress)
            return
        out_port = self._egress[src]
        in_port = self._ingress[dst]
        out_req = out_port.lock.request()
        in_req = in_port.lock.request()
        try:
            # The wait is inside the try: an interrupt while queued must
            # release a port already granted and withdraw the other request.
            yield self.env.all_of([out_req, in_req])
            wire_s = nbytes / self.config.bandwidth_bps
            if progress is None:
                # Nothing observes the instant between latency and wire time.
                yield self.env.timeout(self.config.latency_s, then=wire_s)
            else:
                yield self.env.timeout(self.config.latency_s)
                yield from self._charge(wire_s, nbytes, progress)
            out_port.bytes_moved += nbytes
            in_port.bytes_moved += nbytes
        finally:
            out_port.lock.release(out_req)
            in_port.lock.release(in_req)


# -- three CPU subtask bodies ----------------------------------------------------
#
# Until the fused/unfused fork closed, "charge -> transform -> wrap in a
# Partition" was spelled by ``_ElementWise``, ``MapPartitionOp`` and
# ``FusedMapOp`` each; the engine now has one stage loop
# (``repro.flink.plan._StageChain``) and these are the three retired
# bodies, methods verbatim.  A twin is made from a live operator's
# attributes (``cpu_twin``), so both run over the very same plan node;
# ``test_stage_loop_differential.py`` holds the loop to them.

class RetiredElementWise(_ElementWise):
    """map / filter / flatMap as they ran on their own (still an
    ``_ElementWise``: the executor's relay rule must see the twin as one)."""

    def execute_subtask(self, ctx, inputs):
        (part,) = inputs
        yield from ctx.charge(self.cost, part.nominal_count,
                              part.nominal_nbytes, self.udf)
        return self.functional_output(part, ctx.subtask_index,
                                      ctx.worker.name)

    def functional_output(self, part: Partition, subtask_index: int,
                          worker: Optional[str]) -> Partition:
        """Apply the transform with no simulated time charged.

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

    def _output_scale(self, part: Partition, out_elements: Any) -> float:
        real_out = real_len(out_elements)
        if self.cost.selectivity is None or real_out == 0:
            return part.scale
        # Keep nominal_out = nominal_in * selectivity even when the sample's
        # real selectivity differs.
        nominal_out = part.nominal_count * self.cost.selectivity
        return nominal_out / real_out


class RetiredMapPartitionOp(Operator):
    """``mapPartition``'s own copy."""

    def execute_subtask(self, ctx, inputs):
        (part,) = inputs
        yield from ctx.charge(self.cost, part.nominal_count,
                              part.nominal_nbytes, self.udf)
        out_elements = self._transform(part.elements)
        return Partition(index=ctx.subtask_index, elements=out_elements,
                         element_nbytes=self.out_element_nbytes(part),
                         scale=self._output_scale(part, out_elements),
                         worker=ctx.worker.name)

    def _output_scale(self, part: Partition, out_elements: Any) -> float:
        # Map-style partition functions (one out per in) keep the input's
        # nominal scaling; aggregating ones (partial sums, histograms) emit
        # *real* records that must not be scaled up.  cost.selectivity
        # overrides the heuristic when set.
        out_real = real_len(out_elements)
        if self.cost.selectivity is not None and out_real:
            return part.nominal_count * self.cost.selectivity / out_real
        return part.scale if out_real == part.real_count else 1.0


class RetiredFusedMapOp(Operator):
    """The chain's own copy."""

    def execute_subtask(self, ctx, inputs):
        (current,) = inputs
        for stage in self.stages:
            yield from ctx.charge(stage.cost, current.nominal_count,
                                  current.nominal_nbytes, stage.udf)
            out_elements = stage._transform(current.elements)
            current = Partition(
                index=ctx.subtask_index, elements=out_elements,
                element_nbytes=stage.out_element_nbytes(current),
                scale=stage._output_scale(current, out_elements),
                worker=ctx.worker.name)
        return current


def cpu_twin(op):
    """The retired operator over the same attributes as the live ``op``
    (uid, name, cost, UDF; a chain's members become twins too).  What the
    UDF computes, ``_transform``, was never part of the fork: the twin asks
    the live operator."""
    if len(op.stages) > 1:
        cls = RetiredFusedMapOp
    else:
        cls = (RetiredElementWise if isinstance(op, _ElementWise)
               else RetiredMapPartitionOp)
    twin = object.__new__(cls)
    twin.__dict__.update(vars(op))
    twin._transform = op._transform
    twin.stages = ([cpu_twin(member) for member in op.stages]
                   if len(op.stages) > 1 else [twin])
    return twin


# -- the element keyed reduce: group every key's rows, then fold each group ------
#
# Until PR 20 a keyed reduce first materialised every group
# (``setdefault(key, []).append(x)``) and folded each in a second pass, on
# both sides of the exchange; the engine now reduces on insert
# (``repro.flink.iterators.fold_by_key``).  These are the three
# compositions it replaced, bodies verbatim.

def routing_key_buckets(rows: Any, key_fn: Callable, reduce_fn: Callable,
                        q: int, bucket_of: Callable = hash_bucket
                        ) -> List[List[Any]]:
    """The ``on_routing_key`` element branch of ``Exchange._buckets``
    (``self.key_fn`` / ``self.combiner[1]`` / ``hash_bucket`` as
    arguments): a table of member lists per bucket, then a fold per list."""
    tables: List[dict] = [{} for _ in range(q)]
    for x in rows:
        key = key_fn(x)
        tables[bucket_of(key, q)].setdefault(
            key, []).append(x)
    return [[apply_reduce(members, reduce_fn)
             for members in table.values()]
            for table in tables]


def grouped_reduce(elements: Any, key_fn: Callable,
                   reduce_fn: Callable) -> Any:
    """``repro.flink.iterators.apply_grouped_reduce``: ``group_elements``,
    then ``apply_reduce`` per group (``KeyedReduceOp.execute_subtask`` and
    ``Exchange._combine``)."""
    if not real_len(elements):
        return [] if elements is None else elements
    if is_vectorized(key_fn) and is_vectorized(reduce_fn):
        block = to_block(elements)
        plan = group_plan(key_column(key_fn, block))
        return reduce_fn(block[plan.order], plan.starts)
    groups = group_elements(elements, key_fn)
    return [apply_reduce(members, reduce_fn) for members in groups.values()]


class RetiredDistinctOp(DistinctOp):
    """``distinct``'s consumer as it ran: group, keep ``members[0]``."""

    def execute_subtask(self, ctx, inputs):
        (part,) = inputs
        yield from ctx.charge(self.cost, part.nominal_count,
                              part.nominal_nbytes, self.key_fn)
        groups = group_elements(part.elements, self.key_fn)
        out = [members[0] for members in groups.values()]
        return Partition(index=ctx.subtask_index, elements=out,
                         element_nbytes=self.out_element_nbytes(part),
                         scale=1.0, worker=ctx.worker.name)


# -- the block → tuples lift of the element-priced workloads (until PR 23) -------

def block_tuples(rows: Any, *casts: type) -> List[tuple]:
    """``repro.workloads.base.block_tuples``: column *i* of the 2-D block
    ``rows`` cast to ``casts[i]``, the rows as tuples of Python scalars —
    what ``pagerank-tuples`` / ``cc-tuples`` / ``wordcount-tuples`` emitted
    so that an element ``(key_fn, reduce_fn)`` pair could walk them."""
    block = np.asarray(rows)
    if not block.size:
        return []
    return list(zip(*(block[:, i].astype(cast, copy=False).tolist()
                      for i, cast in enumerate(casts))))
