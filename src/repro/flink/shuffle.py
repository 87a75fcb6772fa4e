"""Data exchange between operators: forward, hash shuffle, broadcast, gather.

An :class:`Exchange` moves the materialized output partitions of a producer
operator to the consumer's subtasks according to a
:class:`~repro.flink.plan.ShipStrategy`.  Producer-side work (pre-combine,
serialization) runs as processes on the producer's workers; wire time goes
through the shared :class:`~repro.common.network.Network`; consumers pay
deserialization.  Functional element routing (hash bucketing, combining) is
computed for real so downstream results are correct.

There is **one routed path and two price lists** (docs/STREAMING_EXECUTOR.md
§columnar).  Row lists and NumPy/GStruct blocks are bucketed by the same
routine (``_buckets``) through :mod:`repro.flink.payload`'s accessors:

* **Bucket rule** — one bucket-id column per producer: ``keys % q`` when an
  extractor with a block form (``vectorized()``, or the built-in
  :class:`~repro.flink.iterators.field` handed a block) yields a key column
  of integer dtype, :func:`hash_bucket` per key otherwise (str, tuple,
  float, bool, mixed and beyond-64-bit keys), ``arange(n) % q`` for
  REBALANCE.  ``payload.cut``
  then deals the rows out by id in original order (a block with one
  stable sort).  A ``(key_fn, reduce_fn)`` pre-combiner keyed on the
  routing key runs once over the producer *before* the rows are cut into
  buckets; one keyed otherwise runs per bucket after routing.
* **Price list** (``_zero_copy``) — ``zero_copy`` when every producer
  payload is a block (or empty), the combiner is block-compatible (none, or
  a vectorized pair) and, for HASH, every key column has integer dtype:
  the payload ships as raw SoA byte regions partitioned into pipeline-sized
  blocks, each framed block pays a fixed descriptor cost on each side, and
  the consumer receives a block.  ``per_row`` otherwise — the classic
  per-record model: serialize on the sender, deserialize on the receiver,
  both at ``serde_bps`` plus a per-record overhead, and the consumer
  receives the row objects deserialization materializes — or, when it folds
  with a built-in pair (``group_by(0).sum(1)``), the block itself: the
  price is the marker's, the host path the pair's.  Forward and union edges
  always price ``per_row``.

Shipping is **one sender loop** (``_send``) whatever the strategy: a routed
producer's buckets, a broadcast producer's copies and a moved forward/union
partition are all a list of shipments walked in order.  Its rule is *carry
the unfired charge, flush before a wait*: serialize, memcpy and deserialize
charges that follow one another with nothing observing the instants between
them are collected and fired as one fused event
(:mod:`repro.common.simclock` "Fused charges": the left fold, bit for bit
the instant separate timeouts reach) only where the sender must wait for
something else — the NIC ports of a cross-node transfer, a spill — and once
at the end.  A cross-node bucket thus costs the host two events: one
flush and its transfer's port service, queued or not — every sender walks
the destinations in the same order and queues on the same ingress port,
and a NIC port hands itself on to the next in line
(:mod:`repro.common.network`).  The ordering statement that goes with it: a
sender keeps the heap position of the moment its chain of charges began,
not of the moment its last separate charge would have been created.  Every
sender reaches every wait at the same instant as before; only when two
senders reach the *same port at exactly the same instant* (equal-sized
buckets on a symmetric layout) can the FIFO order between them differ from
per-charge shipping (``tests/flink/test_shipping_differential.py`` states
both regimes against the retired loops).

A routed or broadcast destination payload above
``FlinkConfig.shuffle_spill_nbytes`` is spilled through the simulated HDFS
(disk + replication) instead of held in exchange buffers.
``only_consumers`` (lineage recovery) restricts every strategy identically:
non-recovering consumer indexes get no shipping, no spill and a ``None``
input slot.
"""

from __future__ import annotations

import itertools
from typing import (Any, Callable, Dict, Generator, List, Optional, Set,
                    Tuple)

import numpy as np

from repro.common.network import Network
from repro.common.simclock import Environment, Event
from repro.flink.config import FlinkConfig
from repro.flink.iterators import (apply_grouped_reduce, fold_by_key,
                                   is_builtin, is_vectorized,
                                   reduce_segments, takes_block)
from repro.flink.partition import Partition
from repro.flink.payload import (concat, cut, group_plan, is_block,
                                 key_column, n_wire_blocks, real_len, take,
                                 to_block, to_rows)
from repro.flink.plan import ShipStrategy
from repro.flink.serialization import Serializer


#: Sentinel combiner: replace each bucket by its (nominal) element count.
#: Lets ``count()`` ship 8 bytes per producer instead of the whole dataset.
COUNT_COMBINER = object()

#: One destination payload of a sender: ``(dst, nbytes, count, payload,
#: spill_tag)`` — nominal bytes and records, and the scratch-file tag of an
#: edge that may spill (``None``: never).
Shipment = Tuple[str, float, float, Any, Optional[str]]

_DEFAULT_FLINK = FlinkConfig()
_spill_ids = itertools.count()


def hash_bucket(key: Any, n: int) -> int:
    """Deterministic bucket for ``key`` among ``n`` consumers.

    Python's builtin ``hash`` is salted per process for str/bytes; use a
    stable hash so runs are reproducible.  *Scalar* keys that compare equal
    share a bucket whatever their type, so a keyed plan's answer does not
    depend on its parallelism: an ``int`` (``bool`` included) is
    ``key % n``, a NumPy scalar routes as the Python value it holds, and an
    integral ``float`` as the ``int`` it equals (``2.0`` with ``2``,
    ``-0.0`` and ``0.0`` with ``0``).  Everything else — other floats,
    ``str``, tuples and any other object — is FNV-1a over its ``repr``, so
    equal keys whose reprs differ (``(1, "a")`` and ``(1.0, "a")``,
    ``Decimal(1)`` and ``1``) may still route apart.
    """
    if isinstance(key, int):
        return key % n
    if isinstance(key, np.generic):
        return hash_bucket(key.item(), n)
    if isinstance(key, float) and key.is_integer():
        return int(key) % n
    h = 2166136261  # FNV-1a over the repr; stable and cheap
    for ch in repr(key):
        h = ((h ^ ord(ch)) * 16777619) & 0xFFFFFFFF
    return h % n


class ExchangeResult:
    """Inputs for every consumer subtask plus traffic accounting."""

    def __init__(self, inputs: List[Partition], bytes_shuffled: float,
                 bytes_zero_copy: float = 0.0, bytes_spilled: float = 0.0):
        self.inputs = inputs
        self.bytes_shuffled = bytes_shuffled
        self.bytes_zero_copy = bytes_zero_copy
        self.bytes_spilled = bytes_spilled


class Exchange:
    """One producer→consumer edge of the execution graph."""

    def __init__(self, env: Environment, network: Network,
                 serializer: Serializer, strategy: ShipStrategy,
                 producers: List[Partition], n_consumers: int,
                 consumer_workers: List[str],
                 key_fn: Optional[Callable] = None,
                 combiner: Optional[Tuple[Callable, Callable]] = None,
                 only_consumers: Optional[Set[int]] = None,
                 hdfs=None, flink: Optional[FlinkConfig] = None,
                 block_nbytes: Optional[float] = None):
        self.env = env
        self.network = network
        self.serializer = serializer
        self.strategy = strategy
        self.producers = producers
        self.n_consumers = n_consumers
        self.consumer_workers = consumer_workers
        self.key_fn = key_fn
        self.combiner = combiner
        # Lineage recovery re-executes only the *lost* consumer subtasks;
        # restricting the exchange to them skips shipping (and payloads) for
        # every other consumer index, whose input slot comes back as None.
        self.only_consumers = only_consumers
        # Spill target for oversized destination payloads (None: never spill).
        self.hdfs = hdfs
        self.flink = flink if flink is not None else _DEFAULT_FLINK
        # Wire-block width: the engine passes the tuned
        # ``cluster.tuning.pipeline_block_nbytes``, which the autoscaler
        # may have widened past the frozen config's.
        self.block_nbytes = (block_nbytes if block_nbytes is not None
                             else self.flink.pipeline_block_nbytes)
        self.bytes_shuffled = 0.0
        self.bytes_zero_copy = 0.0
        self.bytes_spilled = 0.0

    def _want(self, j: int) -> bool:
        return self.only_consumers is None or j in self.only_consumers

    # -- entry point -------------------------------------------------------------
    def run(self) -> Generator[Event, None, ExchangeResult]:
        """Simulation process performing the whole exchange."""
        if self.strategy.is_streaming:  # forward / union
            inputs = yield from self._run_point_to_point()
        elif self.strategy is ShipStrategy.BROADCAST:
            inputs = yield from self._run_broadcast()
        else:  # hash / rebalance / gather
            inputs = yield from self._run_routed()
        return ExchangeResult(inputs, self.bytes_shuffled,
                              self.bytes_zero_copy, self.bytes_spilled)

    # -- forward / union ---------------------------------------------------------
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
                    self._send(part.worker,
                               [(moved.worker, part.nominal_nbytes,
                                 part.nominal_count, part.elements, None)],
                               zero_copy=False),
                    name=f"{self.strategy.value}-{i}"))
        if moves:
            yield self.env.all_of(moves)
        return inputs

    # -- price list ---------------------------------------------------------------
    def _block_payloads(self) -> bool:
        """Every producer payload is a block (or empty), and one is a block:
        an empty row list (a producer that emitted nothing) does not force
        an exchange onto the per-row price list."""
        payloads = [part.elements for part in self.producers]
        return (any(is_block(rows) for rows in payloads)
                and all(is_block(rows) or not real_len(rows)
                        for rows in payloads))

    def _key_columns(self) -> List[Optional[np.ndarray]]:
        """Per-producer HASH key columns under a key extractor that has a
        block form (:func:`~repro.flink.iterators.takes_block`).

        Keys are extracted here, once per producer block, under either
        price list.  A ``vectorized()`` extractor takes the block, never one
        row, so a row list is lifted for it; an unmarked built-in reads a
        block's column and leaves a row list to the per-row route.  Entries
        are ``None`` for those and for empty row lists, and throughout when
        the extractor takes rows only or the strategy does not route by key.
        """
        if (self.strategy is not ShipStrategy.HASH
                or not takes_block(self.key_fn)):
            return [None] * len(self.producers)
        lift = is_vectorized(self.key_fn)
        return [key_column(self.key_fn, to_block(part.elements))
                if is_block(part.elements)
                or (lift and real_len(part.elements)) else None
                for part in self.producers]

    def _zero_copy(self, keys: List[Optional[np.ndarray]]) -> bool:
        """The serde price list of a routed exchange: True for
        ``zero_copy``, False for ``per_row``.

        Zero-copy requires block payloads, a block-compatible combiner
        (none, or a vectorized ``(key_fn, reduce_fn)`` pair) and — for
        HASH — a vectorized key extractor yielding integer keys on every
        producer.  ``COUNT_COMBINER`` and free-form combiners price per
        row.  (A broadcast has no keys and no combiner: block payloads
        alone decide.)
        """
        if not self._block_payloads():
            return False
        if self.combiner is COUNT_COMBINER or callable(self.combiner):
            return False
        if self.combiner is not None:
            key_fn, reduce_fn = self.combiner
            if not (is_vectorized(key_fn) and is_vectorized(reduce_fn)):
                return False
        if self.strategy is not ShipStrategy.HASH:
            return True
        # Only integers hash by ``key % q``.
        return is_vectorized(self.key_fn) and all(
            column is None or column.dtype.kind in "iu" for column in keys)

    # -- routed strategies (hash / rebalance / gather) ----------------------------
    def _buckets(self, part: Partition,
                 keys: Optional[np.ndarray]) -> List[Any]:
        """Route (and pre-combine) one producer's payload, rows or block.

        Bucket *j* holds the rows bound for consumer *j* in original order
        (``payload.cut``).  A pair combiner keyed on the routing key is applied
        *before* the cut, in one pass over the producer: a pair with a
        block form on integer keys reduces the whole block once
        (``group_plan``'s single sort), an element pair reduces each row on
        insert into its bucket's table
        (:func:`~repro.flink.iterators.fold_by_key`).  Either way bucket
        contents equal route-then-combine's, which is what any other
        combiner still gets.
        """
        q = self.n_consumers
        rows = part.elements
        combines = (self.combiner is not None
                    and self.combiner is not COUNT_COMBINER)
        if self.strategy is ShipStrategy.GATHER:
            buckets = [rows]
        elif not real_len(rows):
            return [rows] * q  # nothing to route, nothing to combine
        elif self.strategy is ShipStrategy.REBALANCE:
            buckets = cut(rows, np.arange(real_len(rows)) % q, q)
        else:
            on_routing_key = (combines and not callable(self.combiner)
                              and self.combiner[0] is self.key_fn)
            if keys is None:  # element extractor: one call per row
                if on_routing_key and not is_vectorized(self.combiner[1]):
                    return fold_by_key(rows, self.key_fn, self.combiner[1],
                                       q, hash_bucket)
                ids = [hash_bucket(self.key_fn(x), q) for x in rows]
            elif keys.dtype.kind not in "iu":
                ids = [hash_bucket(key, q) for key in keys.tolist()]
            elif (on_routing_key and is_block(rows)
                    and takes_block(self.combiner[1])):
                plan = group_plan(keys, q)
                combined = reduce_segments(
                    self.combiner[1], take(rows, plan.order), plan.starts)
                return [combined[plan.bounds[j]:plan.bounds[j + 1]]
                        for j in range(q)]
            else:
                ids = keys % q  # == hash_bucket() on ints
            buckets = cut(rows, ids, q)
        if combines:
            buckets = [self._combine(b) for b in buckets]
        return buckets

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
            # Pre-combine compute is charged by the caller via the
            # combiner's operator cost; the sender charges shipping only.
            senders.append(self.env.process(
                self._send(part.worker,
                           [(self.consumer_workers[j], count * element_nbytes,
                             count, bucket, f"{part.index}-{j}")
                            for j, (bucket, count)
                            in enumerate(zip(buckets, counts))
                            if count > 0 and self._want(j)],
                           zero_copy),
                name=f"shuffle-send-{part.index}"))
        if senders:
            yield self.env.all_of(senders)
        unit = (8.0 if self.combiner is COUNT_COMBINER
                else self._producer_element_nbytes())
        # A built-in pair folds the block it is handed: per-row
        # deserialization is charged, the row objects are not built.
        as_blocks = zero_copy or (isinstance(self.combiner, tuple)
                                  and all(map(is_builtin, self.combiner)))
        return [self._consumer_input(j, self._merge(parts[j], as_blocks),
                                     nominal[j], nominal_nbytes[j], unit)
                if self._want(j) else None for j in range(q)]

    @staticmethod
    def _merge(parts: List[Any], as_blocks: bool) -> Any:
        """What one consumer receives from all its producers, in order.

        Zero-copy regions arrive as the blocks they were sent as; per-row
        deserialization materializes row objects, so there the consumer
        holds a row list whatever the producers held (``as_blocks`` false)
        — unless it feeds a built-in pair.  Empty parts never reach a block
        merge: a producer that emitted nothing does not force rows, and a
        consumer that received nothing sees ``[]``.
        """
        if as_blocks:
            return concat([p for p in parts if real_len(p)])
        return concat([to_rows(p) for p in parts])

    def _producer_element_nbytes(self) -> float:
        return self.producers[0].element_nbytes if self.producers else 8.0

    def _consumer_input(self, j: int, elements: Any, nominal: float,
                        nominal_nbytes: float, element_nbytes: float
                        ) -> Partition:
        """Consumer *j*'s merged partition, standing for ``nominal`` elements.

        Its per-element size is count-weighted: producers may carry
        heterogeneous ``element_nbytes`` (e.g. after a union of
        differently-shaped sides), and weighting by shipped counts
        conserves total nominal bytes instead of picking ``producers[0]``
        — whose ``element_nbytes`` only sizes a partition nothing reached.
        """
        if nominal > 0:
            element_nbytes = nominal_nbytes / nominal
        n_real = real_len(elements)
        return Partition(index=j, elements=elements,
                         element_nbytes=element_nbytes,
                         scale=nominal / n_real if n_real else 1.0,
                         worker=self.consumer_workers[j])

    def _combine(self, bucket: Any) -> Any:
        if real_len(bucket) == 0:
            return bucket
        if callable(self.combiner):
            # Free-form producer-side combiner (e.g. first(n)'s truncation):
            # an element-contract UDF, so it sees rows.
            return list(self.combiner(to_rows(bucket)))
        key_fn, reduce_fn = self.combiner
        return apply_grouped_reduce(bucket, key_fn, reduce_fn)

    # -- broadcast ----------------------------------------------------------------
    def _run_broadcast(self) -> Generator[Event, None, List[Partition]]:
        zero_copy = self._block_payloads()
        senders = []
        total_nbytes = sum(p.nominal_nbytes for p in self.producers)
        total_count = sum(p.nominal_count for p in self.producers)
        # One copy per distinct wanted worker, in consumer order.
        first: Dict[str, int] = {}
        for j, dst in enumerate(self.consumer_workers):
            if self._want(j):
                first.setdefault(dst, j)
        for part in self.producers:
            senders.append(self.env.process(
                self._send(part.worker,
                           [(dst, part.nominal_nbytes, part.nominal_count,
                             part.elements, f"b{part.index}-{j}")
                            for dst, j in first.items()],
                           zero_copy),
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

    # -- common ------------------------------------------------------------------
    def _send(self, src: str, shipments: List[Shipment],
              zero_copy: bool) -> Generator[Event, None, None]:
        """The one sender loop: move each of ``shipments`` from ``src``, in
        order, under one price list.

        The rule is *carry the unfired charge, flush before a wait*.  A
        shipment costs the sender a serialize (or block-framing) charge,
        the move, and the receiver's deserialize (or descriptor-parse)
        charge, back to back; nothing observes the instants between them,
        so charges are collected in ``owed`` and fired as one fused event
        (``Environment.timeout``'s left fold: bit for bit the instant
        separate timeouts reach) only where the sender must really wait for
        something else — the NIC ports of a cross-node ``transfer``, a spill
        through HDFS — and once at the end.  Shipment *j*'s deserialize thus
        rides with shipment *j+1*'s serialize, and a same-node shipment
        (serialize + memcpy + deserialize) is all charge and no wait.
        ``Serializer`` calls and byte counters keep their program order;
        they are read only when the exchange ends.

        A payload that carries a ``spill_tag`` (routed and broadcast
        edges) goes through HDFS instead of direct exchange buffers when
        oversized; point-to-point edges carry none and never spill.
        """
        env, serializer = self.env, self.serializer
        owed: List[float] = []
        for dst, nbytes, count, payload, spill_tag in shipments:
            if zero_copy:
                blocks = n_wire_blocks(payload, nbytes, self.block_nbytes)
                # Sender frames block descriptors; bytes bypass serde entirely.
                owed.append(serializer.zero_copy_time(nbytes, blocks))
            else:
                owed.append(serializer.serialize_time(nbytes, count))
            spills = (spill_tag is not None and self.hdfs is not None
                      and nbytes > self.flink.shuffle_spill_nbytes)
            if spills or src != dst:
                yield env.timeout(owed[0], then=owed[1:])
                owed = []
                if spills:
                    yield from self._spill(src, dst, nbytes, spill_tag)
                else:
                    yield from self.network.transfer(src, dst, int(nbytes))
            else:
                owed.append(self.network.loopback_s(src, int(nbytes)))
            if zero_copy:
                # Receiver re-parses the block descriptors; no per-row deser.
                owed.append(blocks * serializer.block_header_s)
            else:
                owed.append(serializer.deserialize_time(nbytes, count))
            if src != dst:
                self.bytes_shuffled += nbytes
            if zero_copy:
                self.bytes_zero_copy += nbytes
        if owed:
            yield env.timeout(owed[0], then=owed[1:])

    def _spill(self, src: str, dst: str, nbytes: float,
               tag: str) -> Generator[Event, None, None]:
        """Route one oversized payload through the simulated HDFS.

        The producer writes the region as a block (disk + replication),
        the consumer reads it back at its node (local replica if the
        namenode placed one there, else disk + network); the scratch file
        is deleted once consumed.
        """
        path = f"/.shuffle/spill-{next(_spill_ids)}-{tag}"
        self.hdfs.namenode.create_file(path)
        block = yield from self.hdfs.append_block(
            path, None, int(nbytes), writer_node=src)
        yield from self.hdfs.read_block(block, dst)
        self.bytes_spilled += nbytes
        self.hdfs.delete(path)
