"""Streaming block-pipelined executor — the engine's one execution path.

Running one operator wave at a time with a full barrier in between would
never overlap an HDFS read, the CPU parse, the H2D upload and the kernel of
one dataset.  This module connects operators by per-partition **block
streams** instead: every operator becomes a producer/consumer node over a
bounded queue of blocks, so block *k* can be in a kernel while block *k+1*
is mid-H2D and block *k+2* is still on disk — all on the simulated clock
(docs/STREAMING_EXECUTOR.md).

Two planes, one result
    The *data plane* (functional values) is evaluated eagerly: block
    metadata carries its payload, and UDFs are pure, so every partition's
    value is known the moment its inputs' values are.  The *timing plane*
    (disk, serde, CPU, PCIe charges) streams block-by-block.  Because every
    per-block cost in the engine is linear, the block-split charges sum to
    exactly the one-shot charges — how finely a job streams changes its
    clock, never its results.

Pipeline regions
    Streaming applies along forward edges only
    (:attr:`~repro.flink.plan.ShipStrategy.is_streaming`).  An operator
    with any hash/gather/rebalance input is a *barrier* consumer:
    it waits for all its producers' final partitions, then runs one
    :class:`~repro.flink.shuffle.Exchange` per input edge — the exchange
    boundary of a pipeline region
    (:meth:`~repro.flink.jobmanager.JobManager._run_exchanges`, shared with
    lineage recovery).

Slot sharing
    Streaming consumers ride their producer's task slot
    (:meth:`TaskManager.claim_slot` with ``shared=True``) — otherwise
    sources holding every slot for the duration of the read would deadlock
    the consumers they feed.  Sources, collection sources and barrier
    consumers claim slots normally; barrier consumers only *after* their
    inputs completed, so a queued slot request never waits on work behind
    it in the pipeline.
"""

from __future__ import annotations

import math

from bisect import bisect_right
from typing import Any, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.common.simclock import Environment, Event
from repro.flink.graph import ExecutionGraph, ExecutionJobVertex
from repro.flink.partition import Partition, split_evenly
from repro.flink.plan import (
    CollectionSource,
    HdfsSink,
    HdfsSource,
    MapOp,
    Operator,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flink.fault import FailureInjector
    from repro.flink.jobmanager import JobManager, JobMetrics
    from repro.flink.scheduler import Scheduler


class BlockStream:
    """A bounded, block-granular availability channel for one partition.

    The producer publishes block indices as their bytes become
    host-resident; consumers wait on byte/block thresholds and acknowledge
    consumption, returning queue credits to the producer.  All transitions
    are monotonic and idempotent, so a retried task attempt can replay its
    publishes/acks without corrupting the channel.

    Backpressure: :meth:`reserve` blocks the producer once it runs
    ``capacity`` blocks ahead of the slowest subscriber's cursor.  One
    exception keeps arbitrary consumption granularities deadlock-free: if a
    consumer is *currently waiting* for bytes beyond the cap (e.g. a GPU
    stream assembling one 8 MB device block out of many small HDFS blocks),
    the producer may run ahead exactly far enough to satisfy that demand.
    """

    def __init__(self, env: Environment, block_nbytes: List[float],
                 capacity: int, n_subscribers: int):
        self.env = env
        self.block_nbytes = [max(0.0, float(b)) for b in block_nbytes]
        self._cum = [0.0]
        for b in self.block_nbytes:
            self._cum.append(self._cum[-1] + b)
        self.total_nbytes = self._cum[-1]
        self.capacity = max(1, int(capacity))
        self.published = 0
        self.closed = False
        self._cursors = [0] * max(0, int(n_subscribers))
        self._avail: List[Tuple[float, Event]] = []
        self._credit: List[Tuple[int, Event]] = []
        # Stats surfaced via trace spans and the metrics registry.
        self.max_depth = 0
        self.stall_count = 0

    # -- state ----------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return len(self.block_nbytes)

    @property
    def published_nbytes(self) -> float:
        return self._cum[self.published]

    def _min_cursor(self) -> int:
        return min(self._cursors) if self._cursors else self.published

    @property
    def depth(self) -> int:
        """Blocks published but not yet consumed by the slowest subscriber."""
        return self.published - self._min_cursor()

    def _eps(self) -> float:
        return 1e-9 * max(1.0, self.total_nbytes)

    def _demand_nbytes(self) -> float:
        return max((t for t, _ in self._avail), default=0.0)

    def _may_publish(self, block_index: int) -> bool:
        if self.closed or block_index < self.published or not self._cursors:
            return True
        if block_index < self._min_cursor() + self.capacity:
            return True
        # Demand override: a waiting consumer needs bytes this block holds.
        return self._cum[block_index] < self._demand_nbytes() - self._eps()

    # -- producer side ---------------------------------------------------------
    def reserve(self, block_index: int) -> Event:
        """Event firing once the bounded queue has room for ``block_index``."""
        evt = Event(self.env)
        if self._may_publish(block_index):
            evt.succeed()
        else:
            self._credit.append((block_index, evt))
        return evt

    def publish(self, block_index: int) -> None:
        """Mark blocks up to ``block_index`` (inclusive) host-resident."""
        if block_index < self.published:
            return  # a retried attempt replaying earlier blocks
        self.published = min(block_index + 1, self.n_blocks)
        self.max_depth = max(self.max_depth, self.depth)
        self._wake()

    def close(self) -> None:
        """Producer finished: resolve every waiter unconditionally."""
        if self.closed:
            return
        self.closed = True
        self._wake()

    # -- consumer side ---------------------------------------------------------
    def when_nbytes(self, nbytes: float) -> Event:
        """Event firing once ``nbytes`` (clamped to the total) are published."""
        evt = Event(self.env)
        threshold = min(float(nbytes), self.total_nbytes)
        if self.closed or self.published_nbytes >= threshold - self._eps():
            evt.succeed()
        else:
            self._avail.append((threshold, evt))
            self._wake_credits()  # new demand may unblock the producer
        return evt

    def when_fraction(self, fraction: float) -> Event:
        """Event firing once ``fraction`` of the total bytes are published."""
        return self.when_nbytes(min(1.0, max(0.0, fraction))
                                * self.total_nbytes)

    def when_blocks(self, count: int) -> Event:
        """Event firing once the first ``count`` blocks are published."""
        return self.when_nbytes(self._cum[min(max(0, count), self.n_blocks)])

    def cum_nbytes(self, count: int) -> float:
        """Total bytes of the first ``count`` blocks."""
        return self._cum[min(max(0, count), self.n_blocks)]

    def ack(self, slot: Optional[int], blocks_done: int) -> None:
        """Advance subscriber ``slot``'s cursor to ``blocks_done`` blocks."""
        if slot is None or not (0 <= slot < len(self._cursors)):
            return
        done = min(max(0, blocks_done), self.n_blocks)
        if done > self._cursors[slot]:
            self._cursors[slot] = done
            self._wake_credits()

    def ack_nbytes(self, slot: Optional[int], nbytes: float) -> None:
        """Acknowledge every block fully covered by the first ``nbytes``."""
        self.ack(slot, bisect_right(self._cum, float(nbytes) + self._eps())
                 - 1)

    def ack_all(self, slot: Optional[int]) -> None:
        self.ack(slot, self.n_blocks)

    # -- waiter bookkeeping ------------------------------------------------------
    def _wake(self) -> None:
        if self._avail:
            still = []
            for threshold, evt in self._avail:
                if (self.closed
                        or self.published_nbytes >= threshold - self._eps()):
                    evt.succeed()
                else:
                    still.append((threshold, evt))
            self._avail = still
        self._wake_credits()

    def _wake_credits(self) -> None:
        if not self._credit:
            return
        still = []
        for block_index, evt in self._credit:
            if self._may_publish(block_index):
                evt.succeed()
            else:
                still.append((block_index, evt))
        self._credit = still


def _fired(env: Environment, value: Any) -> Event:
    evt = Event(env)
    evt.succeed(value)
    return evt


def _split_chunks(block_nbytes: List[float],
                  chunk_nbytes: float) -> List[float]:
    """Split each block's byte count into equal chunks of at most
    ``chunk_nbytes`` (every block yields at least one chunk, so block
    boundaries always coincide with chunk boundaries)."""
    plan: List[float] = []
    for nbytes in block_nbytes:
        n = max(1, math.ceil(nbytes / max(1.0, chunk_nbytes)))
        prev = 0.0
        for j in range(1, n + 1):
            cum = nbytes * j / n
            plan.append(cum - prev)
            prev = cum
    return plan


class PipelinedExecutor:
    """Runs one job's execution graph as a streaming block pipeline.

    Per operator partition it keeps two events — a *shell* (fires as soon
    as the partition's functional value and home worker are known, possibly
    long before its timing completes) and a *final* (fires when the
    producing subtask returns) — plus an optional :class:`BlockStream`
    carrying block-level availability.  Streaming consumers start at the
    shell and gate their charges on the stream; barrier consumers wait for
    finals and run their exchanges.
    """

    def __init__(self, jm: "JobManager", graph: ExecutionGraph,
                 scheduler: "Scheduler", metrics: "JobMetrics",
                 injector: Optional["FailureInjector"]):
        self.jm = jm
        self.cluster = jm.cluster
        self.env: Environment = jm.env
        self.config = jm.config
        self.graph = graph
        self.scheduler = scheduler
        self.metrics = metrics
        self.injector = injector
        self.obs = self.cluster.obs
        self._shells: Dict[int, List[Event]] = {}
        self._finals: Dict[int, List[Event]] = {}
        self._streams: Dict[int, List[Optional[BlockStream]]] = {}
        self._consumer_slot: Dict[Tuple[int, int], int] = {}
        self._n_subs: Dict[int, int] = {}
        self._emits: Dict[int, bool] = {}
        self._op_start: Dict[int, Optional[float]] = {}
        self._region_of: Dict[int, int] = {}
        # Serializes lineage recoveries triggered by concurrent barrier
        # consumers (JobManager._recover_dataset is not reentrant).
        self._recovering: Optional[Event] = None

    # -- static wiring ----------------------------------------------------------
    def _streaming_mode(self, op: Operator) -> bool:
        """True when every input edge of ``op`` streams (and shapes line up)."""
        if not op.inputs or not op.strategies:
            return False
        if not all(s.is_streaming for s in op.strategies):
            return False
        jv = self.graph.job_vertex(op)
        # The FORWARD exchange rejects unequal parallelism.
        return all(len(self._shells[inp.uid]) == jv.parallelism
                   for inp in op.inputs)

    def _wire(self, fresh: List[Operator]) -> None:
        for op in fresh:
            jv = self.graph.job_vertex(op)
            self._shells[op.uid] = [Event(self.env)
                                    for _ in range(jv.parallelism)]
            self._finals[op.uid] = [Event(self.env)
                                    for _ in range(jv.parallelism)]
            self._streams[op.uid] = [None] * jv.parallelism
            self._op_start[op.uid] = None
        for op in fresh:
            if self._streaming_mode(op):
                for k in range(len(op.inputs)):
                    uid = op.inputs[k].uid
                    slot = self._n_subs.get(uid, 0)
                    self._consumer_slot[(op.uid, k)] = slot
                    self._n_subs[uid] = slot + 1
        # An operator emits a block stream when it can publish progressively
        # (sources generate blocks; maps relay their input's stream) and
        # someone downstream streams from it.
        for op in fresh:
            emits = False
            if self._n_subs.get(op.uid, 0) > 0:
                if isinstance(op, HdfsSource):
                    emits = True
                elif (isinstance(op, MapOp)
                        and self._streaming_mode(op)
                        and self._emits.get(op.inputs[0].uid, False)):
                    emits = True
            self._emits[op.uid] = emits
        for r, region in enumerate(self.graph.pipeline_regions()):
            for op in region:
                self._region_of[op.uid] = r

    # -- entry point -------------------------------------------------------------
    def run(self) -> Generator[Event, None, None]:
        """Simulation process executing the whole graph concurrently."""
        fresh: List[Operator] = []
        for op in self.graph.order:
            if op.uid in self.cluster.materialized:
                # Persisted from an earlier job: recover lost partitions
                # (serially, before the pipeline), then expose the dataset
                # as already-final.
                yield from self.jm._recover_dataset(
                    op, self.graph, self.scheduler, self.metrics,
                    self.injector)
                parts = self.cluster.materialized[op.uid]
                self._shells[op.uid] = [_fired(self.env, p) for p in parts]
                self._finals[op.uid] = [_fired(self.env, p) for p in parts]
                self._streams[op.uid] = [None] * len(parts)
            else:
                fresh.append(op)
        self._wire(fresh)
        procs = [self.env.process(self._run_op(op),
                                  name=f"pipeline:{op.name}")
                 for op in fresh]
        if procs:
            yield self.env.all_of(procs)
        for op in fresh:
            self.metrics.materialized_uids.add(op.uid)

    # -- per-operator runner -------------------------------------------------------
    def _run_op(self, op: Operator) -> Generator[Event, None, None]:
        uid = op.uid
        jv = self.graph.job_vertex(op)
        if isinstance(op, HdfsSink):
            self.cluster.hdfs.namenode.create_file(op.path)
        if isinstance(op, HdfsSource):
            procs = self._start_source(op, jv)
        elif isinstance(op, CollectionSource):
            procs = self._start_collection(op, jv)
        elif self._streaming_mode(op):
            procs = [self.env.process(self._streaming_slice(op, jv, i),
                                      name=f"{op.name}[{i}]")
                     for i in range(jv.parallelism)]
        else:
            procs = yield from self._start_barrier(op, jv)
        results = yield self.env.all_of(procs)
        outputs = sorted(results.values(), key=lambda p: p.index)

        end = self.env.now
        start = self._op_start[uid] if self._op_start[uid] is not None \
            else end
        self.metrics.record_operator(op, jv.parallelism, start, end)
        self.metrics.subtasks += len(procs)
        self.obs.emit("operator", self.cluster.master_name, f"op:{op.name}",
                      start, end, op=op.name, parallelism=jv.parallelism,
                      region=self._region_of.get(uid, -1))

        # Not an assignment: a barrier consumer woken by the same finals,
        # earlier in this instant, may have registered the dataset already
        # (_start_barrier) and be repairing that very list.
        self.cluster.materialized.setdefault(uid, outputs)
        self.scheduler.release(jv)
        self._publish_queue_stats(op)

    def _publish_queue_stats(self, op: Operator) -> None:
        streams = [s for s in self._streams.get(op.uid, []) if s is not None]
        if not streams:
            return
        max_depth = max(s.max_depth for s in streams)
        self.obs.emit("pipeline.queue", op=op.name, max_depth=max_depth,
                      stalls=sum(s.stall_count for s in streams))

    # -- operator modes ----------------------------------------------------------
    def _start_source(self, op: HdfsSource, jv: ExecutionJobVertex) -> list:
        self.scheduler.schedule_source(jv, self.cluster.hdfs)
        procs = []
        for i in range(jv.parallelism):
            vertex = jv.subtasks[i]
            shell = op.peek_output(vertex.assigned_blocks, i, vertex.worker)
            stream = None
            if self._emits[op.uid]:
                # Sub-block plan: each HDFS block split into pipeline-sized
                # chunks (the streaming read publishes these as the disk
                # transfer progresses — an unsplit 128 MB block would give
                # the pipeline nothing to overlap on small inputs).
                plan = _split_chunks(
                    [b.nbytes for b in vertex.assigned_blocks],
                    self.cluster.tuning.pipeline_block_nbytes)
                stream = BlockStream(
                    self.env, plan,
                    self.cluster.tuning.pipeline_queue_blocks,
                    self._n_subs.get(op.uid, 0))
                self._streams[op.uid][i] = stream
            self._shells[op.uid][i].succeed(shell)
            procs.append(self.env.process(
                self._slice(op, jv, i, [], None, needs_slot=True,
                            out_stream=stream),
                name=f"{op.name}[{i}]"))
        return procs

    def _start_collection(self, op: CollectionSource,
                          jv: ExecutionJobVertex) -> list:
        parts = split_evenly(op.elements, jv.parallelism,
                             op.element_nbytes, op.scale)
        self.scheduler.schedule_collection_source(jv, parts)
        return [self.env.process(
                    self._slice(op, jv, i, [], parts[i], needs_slot=True),
                    name=f"{op.name}[{i}]")
                for i in range(jv.parallelism)]

    def _start_barrier(self, op: Operator, jv: ExecutionJobVertex
                       ) -> Generator[Event, None, list]:
        """Wait for all input finals, run the exchanges, spawn subtasks."""
        producer_parts: List[List[Partition]] = []
        for inp in op.inputs:
            parts = []
            for evt in self._finals[inp.uid]:
                parts.append((yield evt))
            producer_parts.append(sorted(parts, key=lambda p: p.index))
        # A worker may have died between an input completing and this
        # barrier consuming it — recover lost partitions first.  Finals
        # imply materialized: the finals wake this process before the
        # producer's own runner (_run_op), so it is registered here if not
        # yet there — recovery then recomputes what was lost, not the whole
        # operator as for a dataset it cannot find.
        for idx, inp in enumerate(op.inputs):
            if any(not self.cluster.worker_is_alive(p.worker)
                   for p in producer_parts[idx]):
                self.cluster.materialized.setdefault(inp.uid,
                                                     producer_parts[idx])
                yield from self._recover_serialized(inp)
                producer_parts[idx] = sorted(
                    self.cluster.materialized[inp.uid],
                    key=lambda p: p.index)

        per_subtask_inputs = yield from self.jm._run_exchanges(
            op, jv, self.graph, self.scheduler, self.metrics, producer_parts)
        return [self.env.process(
                    self._slice(op, jv, i, per_subtask_inputs[i], None,
                                needs_slot=True),
                    name=f"{op.name}[{i}]")
                for i in range(jv.parallelism)]

    def _recover_serialized(self, op: Operator
                            ) -> Generator[Event, None, None]:
        """Run a lineage recovery, one at a time across runner processes."""
        while self._recovering is not None:
            yield self._recovering
        self._recovering = Event(self.env)
        try:
            yield from self.jm._recover_dataset(
                op, self.graph, self.scheduler, self.metrics, self.injector)
        finally:
            done, self._recovering = self._recovering, None
            done.succeed()

    def _streaming_slice(self, op: Operator, jv: ExecutionJobVertex,
                         i: int) -> Generator[Event, None, Partition]:
        """One streaming consumer subtask: wait shells, colocate, run."""
        uid = op.uid
        collected: List[Partition] = []
        in_stream: Optional[BlockStream] = None
        in_slot: Optional[int] = None
        colocate: Optional[str] = None
        for k in range(len(op.inputs)):
            inp_uid = op.inputs[k].uid
            part = yield self._shells[inp_uid][i]
            stream = self._streams[inp_uid][i]
            if stream is not None:
                if in_stream is None:
                    in_stream = stream
                    in_slot = self._consumer_slot[(uid, k)]
            else:
                # No stream: the producer's timing completes all at once —
                # this consumer may only proceed from its final.
                part = yield self._finals[inp_uid][i]
            collected.append(part)
            if colocate is None:
                colocate = part.worker
        vertex = jv.subtasks[i]
        self.scheduler.schedule_subtask(vertex, colocate)

        # Mirror the forward Exchange's reindexing.  Placement
        # differs from the producer's home only when that worker died
        # (health fallback), in which case the producer's own retry is
        # already re-shipping the data — no extra transfer is charged here.
        inputs: List[Partition] = []
        for part in collected:
            moved = part.derive(part.elements)
            moved.index = i
            moved.worker = vertex.worker
            inputs.append(moved)

        out_stream: Optional[BlockStream] = None
        if self._emits[uid] and in_stream is not None:
            shell = op.functional_output(inputs[0], i, vertex.worker)
            ratio = (shell.nominal_nbytes / in_stream.total_nbytes
                     if in_stream.total_nbytes > 0 else 0.0)
            out_stream = BlockStream(
                self.env, [b * ratio for b in in_stream.block_nbytes],
                self.cluster.tuning.pipeline_queue_blocks,
                self._n_subs.get(uid, 0))
            self._streams[uid][i] = out_stream
            self._shells[uid][i].succeed(shell)

        # Slot sharing applies only to a consumer that actually rides a
        # producer's stream (the producer holds the slot for the duration).
        # A final-gated consumer (e.g. downstream of a collection source)
        # starts after its producer released its slot, so it must claim
        # one of its own — otherwise slot contention would vanish.
        return (yield from self._slice(
            op, jv, i, inputs, None, needs_slot=in_stream is None,
            in_stream=in_stream, in_slot=in_slot, out_stream=out_stream))

    # -- subtask wrapper -----------------------------------------------------------
    def _slice(self, op: Operator, jv: ExecutionJobVertex, i: int,
               inputs: List[Optional[Partition]],
               preassigned: Optional[Partition], needs_slot: bool,
               in_stream: Optional[BlockStream] = None,
               in_slot: Optional[int] = None,
               out_stream: Optional[BlockStream] = None
               ) -> Generator[Event, None, Partition]:
        if self._op_start[op.uid] is None:
            self._op_start[op.uid] = self.env.now
        part = yield from self.jm._run_subtask(
            jv.subtasks[i], inputs, preassigned,
            self.metrics, self.injector, self.scheduler,
            needs_slot=needs_slot, in_stream=in_stream, in_slot=in_slot,
            out_stream=out_stream)
        if not self._shells[op.uid][i].triggered:
            self._shells[op.uid][i].succeed(part)
        self._finals[op.uid][i].succeed(part)
        return part
