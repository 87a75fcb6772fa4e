"""Data exchange between operators: forward, hash shuffle, broadcast, gather.

An :class:`Exchange` moves the materialized output partitions of a producer
operator to the consumer's subtasks according to a
:class:`~repro.flink.plan.ShipStrategy`.  Producer-side work (pre-combine,
serialization) runs as processes on the producer's workers; wire time goes
through the shared :class:`~repro.common.network.Network`; consumers pay
deserialization.  Functional element routing (hash bucketing, combining) is
computed for real so downstream results are correct.

Two wire formats exist (docs/STREAMING_EXECUTOR.md §columnar):

* **Row path** — the classic per-record model: serialize on the sender,
  deserialize on the receiver, both at ``serde_bps`` plus a per-record
  overhead.  Always used for list payloads, ``COUNT_COMBINER`` counts and
  free-form combiners.
* **Columnar path** — payloads that are NumPy/GStruct blocks with a
  vectorized integer key extractor ship as raw SoA byte regions,
  partitioned into pipeline-sized blocks.  No per-row serde is charged;
  each framed block pays only a fixed descriptor cost on each side.  A
  destination payload above ``FlinkConfig.shuffle_spill_nbytes`` is spilled
  through the simulated HDFS (disk + replication) instead of held in
  exchange buffers.  Host work is one pass per producer block: keys are
  extracted once, one stable sort lays the rows out by destination, and a
  ``(key_fn, reduce_fn)`` pre-combiner on the routing key runs once over
  the whole block *before* it is cut into buckets (``_columnar_buckets``).

``only_consumers`` (lineage recovery) restricts both paths identically:
non-recovering consumer indexes get no shipping, no spill and a ``None``
input slot.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Generator, List, Optional, Set, Tuple

import numpy as np

from repro.common.network import Network
from repro.common.simclock import Environment, Event
from repro.flink.columnar import (as_block, bucket_plan,
                                  columnar_compatible, columnar_concat,
                                  group_plan, is_columnar, key_column,
                                  n_wire_blocks, soa_regions)
from repro.flink.config import FlinkConfig
from repro.flink.iterators import apply_grouped_reduce, is_vectorized
from repro.flink.partition import Partition, real_len
from repro.flink.plan import ShipStrategy
from repro.flink.serialization import Serializer


#: Sentinel combiner: replace each bucket by its (nominal) element count.
#: Lets ``count()`` ship 8 bytes per producer instead of the whole dataset.
COUNT_COMBINER = object()

_DEFAULT_FLINK = FlinkConfig()
_spill_ids = itertools.count()


def hash_bucket(key: Any, n: int) -> int:
    """Deterministic bucket for ``key`` among ``n`` consumers.

    Python's builtin ``hash`` is salted per process for str/bytes; use a
    stable hash so runs are reproducible.  Keys that compare equal share a
    bucket whatever their scalar type: NumPy scalars hash as the Python
    value they hold, ``-0.0`` as ``0.0``.
    """
    if isinstance(key, int):
        return key % n
    if isinstance(key, np.generic):
        return hash_bucket(key.item(), n)
    if isinstance(key, float) and key == 0.0:
        key = 0.0
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
                 hdfs=None, flink: Optional[FlinkConfig] = None):
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
        self.bytes_shuffled = 0.0
        self.bytes_zero_copy = 0.0
        self.bytes_spilled = 0.0

    def _want(self, j: int) -> bool:
        return self.only_consumers is None or j in self.only_consumers

    # -- entry point -------------------------------------------------------------
    def run(self) -> Generator[Event, None, ExchangeResult]:
        """Simulation process performing the whole exchange."""
        if self.strategy is ShipStrategy.FORWARD:
            inputs = yield from self._run_forward()
        elif self.strategy in (ShipStrategy.UNION_LEFT,
                               ShipStrategy.UNION_RIGHT):
            inputs = yield from self._run_union()
        elif self.strategy in (ShipStrategy.HASH, ShipStrategy.REBALANCE,
                               ShipStrategy.GATHER):
            inputs = yield from self._run_routed()
        elif self.strategy is ShipStrategy.BROADCAST:
            inputs = yield from self._run_broadcast()
        else:  # pragma: no cover - exhaustive over the enum
            raise NotImplementedError(self.strategy)
        return ExchangeResult(inputs, self.bytes_shuffled,
                              self.bytes_zero_copy, self.bytes_spilled)

    # -- forward ---------------------------------------------------------------
    def _run_forward(self) -> Generator[Event, None, List[Partition]]:
        if len(self.producers) != self.n_consumers:
            raise ValueError(
                f"FORWARD needs equal parallelism: {len(self.producers)} "
                f"producers vs {self.n_consumers} consumers")
        moves = []
        for j, part in enumerate(self.producers):
            if not self._want(j):
                continue
            dst = self.consumer_workers[j]
            if part.worker != dst:
                moves.append(self.env.process(
                    self._ship(part.worker, dst, part.nominal_nbytes,
                               part.nominal_count),
                    name=f"forward-{j}"))
        if moves:
            yield self.env.all_of(moves)
        inputs: List[Optional[Partition]] = []
        for j, part in enumerate(self.producers):
            if not self._want(j):
                inputs.append(None)
                continue
            dst = self.consumer_workers[j]
            moved = part.derive(part.elements)
            moved.index = j
            moved.worker = dst
            inputs.append(moved)
        return inputs

    # -- union ------------------------------------------------------------------
    def _run_union(self) -> Generator[Event, None, List[Partition]]:
        """Union sides: partition *i* feeds subtask ``offset + i``; every
        other subtask receives ``None`` for this input (a union subtask
        reads exactly one side)."""
        q = self.n_consumers
        offset = (0 if self.strategy is ShipStrategy.UNION_LEFT
                  else q - len(self.producers))
        inputs: List[Optional[Partition]] = [None] * q
        moves = []
        for i, part in enumerate(self.producers):
            if not self._want(offset + i):
                continue
            dst = self.consumer_workers[offset + i]
            if part.worker != dst:
                moves.append(self.env.process(
                    self._ship(part.worker, dst, part.nominal_nbytes,
                               part.nominal_count), name=f"union-{i}"))
        if moves:
            yield self.env.all_of(moves)
        for i, part in enumerate(self.producers):
            if not self._want(offset + i):
                continue
            moved = part.derive(part.elements)
            moved.index = offset + i
            moved.worker = self.consumer_workers[offset + i]
            inputs[offset + i] = moved
        return inputs

    # -- columnar eligibility -----------------------------------------------------
    def _columnar_payloads(self) -> bool:
        """Every producer payload is a NumPy block (or trivially empty)."""
        return (bool(self.producers)
                and all(columnar_compatible(p.elements)
                        for p in self.producers)
                and any(is_columnar(p.elements) for p in self.producers))

    def _key_columns(self) -> List[Optional[np.ndarray]]:
        """Per-producer HASH key columns under a vectorized key extractor.

        Keys are extracted here, once per producer block, for both wire
        formats (a vectorized extractor takes the block, never one row).
        Entries are ``None`` for empty payloads, and throughout when keys
        are extracted per row or the strategy does not route by key.
        """
        if (self.strategy is not ShipStrategy.HASH
                or not is_vectorized(self.key_fn)):
            return [None] * len(self.producers)
        return [key_column(self.key_fn, as_block(part.elements))
                if is_columnar(part.elements) or real_len(part.elements)
                else None
                for part in self.producers]

    def _zero_copy(self, keys: List[Optional[np.ndarray]]) -> bool:
        """True if the routed exchange can take the zero-copy block path.

        Requires columnar payloads, a block-compatible combiner (none, or a
        vectorized ``(key_fn, reduce_fn)`` pair) and — for HASH — a
        vectorized key extractor yielding integer keys on every producer.
        ``COUNT_COMBINER`` and free-form combiners stay on the row path.
        """
        if not self._columnar_payloads():
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
    def _row_buckets(self, part: Partition,
                     keys: Optional[np.ndarray]) -> List[Any]:
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
            buckets = [self._combine(b) for b in buckets]
        return buckets

    def _columnar_buckets(self, part: Partition,
                          keys: Optional[np.ndarray]) -> List[Any]:
        """Bucket (and pre-combine) a columnar payload without leaving NumPy.

        Bucket contents and order match the per-row routes exactly: one
        stable sort by bucket keeps original order (hash), ``arr[j::q]`` is
        the round-robin residue class (rebalance), gather keeps the block
        whole.  A pair combiner keyed on the routing key is fused: combine
        the whole block once, then cut it at the bucket bounds.
        """
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
            buckets = [self._combine(b) for b in buckets]
        return buckets

    def _run_routed(self) -> Generator[Event, None, List[Partition]]:
        q = self.n_consumers
        keys = self._key_columns()
        columnar = self._zero_copy(keys)
        bucketed = self._columnar_buckets if columnar else self._row_buckets
        # bucket_payloads[j] collects (elements, count, nbytes) per producer.
        bucket_payloads: List[List[Tuple[Any, float, float]]] = [
            [] for _ in range(q)]
        senders = []
        for i, part in enumerate(self.producers):
            buckets = bucketed(part, keys[i])  # routed and pre-combined
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
                bucket_payloads[j].append(
                    (bucket, count, count * element_nbytes))
            senders.append(self.env.process(
                self._send_buckets(part, buckets, counts, element_nbytes,
                                   columnar),
                name=f"shuffle-send-{part.index}"))
        if senders:
            yield self.env.all_of(senders)
        inputs: List[Optional[Partition]] = []
        for j in range(q):
            if not self._want(j):
                inputs.append(None)
                continue
            nominal = sum(count for _, count, _ in bucket_payloads[j])
            nominal_nbytes = sum(nb for _, _, nb in bucket_payloads[j])
            if columnar:
                merged = columnar_concat(
                    [bucket for bucket, _, _ in bucket_payloads[j]])
            else:
                merged = []
                for bucket, _, _ in bucket_payloads[j]:
                    merged.extend(bucket)
            n_real = real_len(merged)
            scale = nominal / n_real if n_real else 1.0
            inputs.append(Partition(
                index=j, elements=merged,
                element_nbytes=self._merged_element_nbytes(
                    nominal, nominal_nbytes),
                scale=scale, worker=self.consumer_workers[j]))
        return inputs

    def _merged_element_nbytes(self, nominal_count: float,
                               nominal_nbytes: float) -> float:
        """Count-weighted per-element size of a merged consumer partition.

        Producers may carry heterogeneous ``element_nbytes`` (e.g. after a
        union of differently-shaped sides); weighting by shipped counts
        conserves total nominal bytes instead of picking ``producers[0]``.
        """
        if nominal_count > 0:
            return nominal_nbytes / nominal_count
        if self.combiner is COUNT_COMBINER:
            return 8.0
        return self.producers[0].element_nbytes if self.producers else 8.0

    def _combine(self, bucket: Any) -> Any:
        if real_len(bucket) == 0:
            return bucket
        if callable(self.combiner):
            # Free-form producer-side combiner (e.g. first(n)'s truncation).
            return list(self.combiner(bucket))
        key_fn, reduce_fn = self.combiner
        return apply_grouped_reduce(bucket, key_fn, reduce_fn)

    def _send_buckets(self, part: Partition, buckets: List[Any],
                      counts: List[float], element_nbytes: float,
                      columnar: bool = False
                      ) -> Generator[Event, None, None]:
        # Pre-combine compute is charged by the caller via the combiner's
        # operator cost; here we charge shipping: serialize once, then wire
        # time per destination.
        for j, (bucket, count) in enumerate(zip(buckets, counts)):
            if count <= 0 or not self._want(j):
                continue
            nbytes = count * element_nbytes
            dst = self.consumer_workers[j]
            yield from self._ship_payload(
                part.worker, dst, nbytes, count,
                bucket, columnar, tag=f"{part.index}-{j}")

    # -- broadcast ----------------------------------------------------------------
    def _run_broadcast(self) -> Generator[Event, None, List[Partition]]:
        columnar = self._columnar_payloads()
        senders = []
        total_nbytes = sum(p.nominal_nbytes for p in self.producers)
        total_count = sum(p.nominal_count for p in self.producers)
        for part in self.producers:
            senders.append(self.env.process(
                self._broadcast_one(part, columnar),
                name=f"bcast-{part.index}"))
        if senders:
            yield self.env.all_of(senders)
        if columnar:
            merged = columnar_concat([p.elements for p in self.producers])
        else:
            merged = []
            for part in self.producers:
                merged.extend(list(part.elements))
        # Count-weighted per-element size: conserves total nominal bytes for
        # heterogeneous producers instead of assuming producers[0]'s shape.
        if total_count > 0:
            element_nbytes = total_nbytes / total_count
        else:
            element_nbytes = (self.producers[0].element_nbytes
                              if self.producers else 8.0)
        n_real = real_len(merged)
        scale = total_count / n_real if n_real else 1.0
        return [Partition(index=j,
                          elements=merged if columnar else list(merged),
                          element_nbytes=element_nbytes, scale=scale,
                          worker=self.consumer_workers[j])
                if self._want(j) else None
                for j in range(self.n_consumers)]

    def _broadcast_one(self, part: Partition,
                       columnar: bool = False
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
                part.elements, columnar, tag=f"b{part.index}-{j}")

    # -- common ------------------------------------------------------------------
    def _ship(self, src: str, dst: str, nbytes: float,
              count: float) -> Generator[Event, None, None]:
        yield self.env.timeout(self.serializer.serialize_time(nbytes, count))
        yield from self.network.transfer(src, dst, int(nbytes))
        yield self.env.timeout(self.serializer.deserialize_time(nbytes, count))
        if src != dst:
            self.bytes_shuffled += nbytes

    def _ship_payload(self, src: str, dst: str, nbytes: float, count: float,
                      payload: Any, columnar: bool, tag: str
                      ) -> Generator[Event, None, None]:
        """Move one destination payload: zero-copy or row serde, spilling
        oversized payloads through HDFS instead of direct exchange buffers."""
        blocks = 0
        if columnar:
            regions = (soa_regions(payload) if is_columnar(payload)
                       else [int(nbytes)])
            blocks = n_wire_blocks(nbytes, self.flink.pipeline_block_nbytes,
                                   len(regions))
            # Sender frames block descriptors; bytes bypass serde entirely.
            yield self.env.timeout(
                self.serializer.zero_copy_time(nbytes, blocks))
        else:
            yield self.env.timeout(
                self.serializer.serialize_time(nbytes, count))
        if (self.hdfs is not None
                and nbytes > self.flink.shuffle_spill_nbytes):
            yield from self._spill(src, dst, nbytes, tag)
        else:
            yield from self.network.transfer(src, dst, int(nbytes))
        if columnar:
            # Receiver re-parses the block descriptors; no per-row deser.
            yield self.env.timeout(blocks * self.serializer.block_header_s)
        else:
            yield self.env.timeout(
                self.serializer.deserialize_time(nbytes, count))
        if src != dst:
            self.bytes_shuffled += nbytes
        if columnar:
            self.bytes_zero_copy += nbytes

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
