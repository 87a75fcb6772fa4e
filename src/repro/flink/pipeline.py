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
    :class:`~repro.flink.shuffle.Exchange` per such input edge — the
    exchange boundary of a pipeline region
    (:meth:`PipelinedExecutor._run_exchanges`).  A forward edge never goes
    through an exchange: partition *i* feeds subtask *i* whole.

Which partitions run
    One rule: a job runs exactly the partitions its sinks need that do not
    already exist on a live worker.  The walk (:meth:`PipelinedExecutor._plan`)
    goes up from the sinks and stops at every partition that exists, so a
    persisted dataset reused by a later job does not re-run its evicted
    lineage, and partitions lost before the job are recomputed in the same
    pipeline as everything else.  A barrier consumer that finds a producer
    partition on a dead worker runs the same walk from that partition, in
    a nested :meth:`PipelinedExecutor._compute` whose own barriers do the
    same for a second loss: lineage recovery is this executor, streaming
    along forward edges as the job first ran them.  Recomputing a partition
    of a dataset that existed is a *recovery* (a ``recover`` span,
    ``JobMetrics.recovered_partitions``); computing one for the first time
    is an operator run.

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
from typing import (Any, Dict, Generator, Iterable, List, Optional, Set,
                    Tuple, TYPE_CHECKING)

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
from repro.flink.shuffle import Exchange

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


def _forwarded(part: Partition, i: int, worker: str) -> Partition:
    """``part`` handed whole over a forward edge to subtask ``i`` on
    ``worker``."""
    moved = part.derive(part.elements)
    moved.index = i
    moved.worker = worker
    return moved


class PipelinedExecutor:
    """Runs one job's execution graph as a streaming block pipeline.

    Per operator partition it keeps two events — a *shell* (fires as soon
    as the partition's functional value and home worker are known, possibly
    long before its timing completes) and a *final* (fires when the
    producing subtask returns) — plus an optional :class:`BlockStream`
    carrying block-level availability.  Streaming consumers start at the
    shell and gate their charges on the stream; barrier consumers wait for
    finals and run their exchanges.

    What runs is decided by one walk (:meth:`_plan`): up from the wanted
    partitions, stopping at every partition that exists on a live worker
    or is being computed.  A job wants its sinks; a barrier consumer that
    finds a producer partition on a dead worker wants that partition
    (:meth:`_start_barrier`).  Either way the partitions found missing run
    as one pipeline (:meth:`_compute`).  Every wait is on a partition
    upstream of the waiter, so nested computes cannot wait on each other.
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
        # Per operator uid, one entry per partition index (None: neither
        # computed nor wanted).  ``_parts`` is the partition itself; for a
        # dataset that existed before this job it is the very list in
        # ``cluster.materialized``, so a recomputed partition replaces the
        # lost one there.
        self._parts: Dict[int, List[Optional[Partition]]] = {}
        self._shells: Dict[int, List[Optional[Event]]] = {}
        self._finals: Dict[int, List[Optional[Event]]] = {}
        self._streams: Dict[int, List[Optional[BlockStream]]] = {}
        # Per partition (uid, index): its stream's subscriber count and
        # whether it emits one; per (consumer uid, input k, index): the
        # consumer's cursor on that stream.
        self._n_subs: Dict[Tuple[int, int], int] = {}
        self._emits: Dict[Tuple[int, int], bool] = {}
        self._consumer_slot: Dict[Tuple[int, int, int], int] = {}
        self._region_of: Dict[int, int] = {}

    # -- which partitions run -----------------------------------------------------
    def _known(self, op: Operator) -> Optional[List[Optional[Partition]]]:
        """``op``'s partitions as this job knows them, else as an earlier
        job left them (None: the dataset does not exist)."""
        parts = self._parts.get(op.uid)
        return (parts if parts is not None
                else self.cluster.materialized.get(op.uid))

    def _width(self, op: Operator) -> int:
        parts = self._known(op)
        return (len(parts) if parts is not None
                else self.graph.job_vertex(op).parallelism)

    def _missing(self, op: Operator, indices: List[int]) -> Set[int]:
        """The partitions of ``op`` among ``indices`` that neither exist on
        a live worker nor are being computed."""
        parts = self._known(op)
        if parts is None:
            return set(indices)
        finals = self._finals.get(op.uid)
        alive = self.cluster.worker_is_alive
        return {i for i in indices
                if (finals is None or finals[i] is None
                    or finals[i].triggered)
                and (parts[i] is None or not alive(parts[i].worker))}

    def _plan(self, wanted: List[Tuple[Operator, Iterable[int]]]
              ) -> Dict[int, Set[int]]:
        """Walk up from ``wanted`` and stop at every partition that exists:
        the partition indices to compute, per operator uid reached (an
        empty set where the walk stopped).  A forward edge needs the same
        indices of its input, any other edge all of them."""
        need: Dict[int, Set[int]] = {}
        stack = list(wanted)
        while stack:
            op, indices = stack.pop()
            have = need.setdefault(op.uid, set())
            todo = self._missing(op, [i for i in indices if i not in have])
            if not todo:
                continue
            have |= todo
            for inp, strat in zip(op.inputs, op.strategies):
                stack.append((inp, todo if strat.is_streaming
                              else range(self._width(inp))))
        return need

    def _seed(self, op: Operator, todo: Set[int]) -> bool:
        """Give ``op``'s partitions in ``todo`` fresh events; True when the
        dataset existed before (this is a recovery of it)."""
        env, uid = self.env, op.uid
        if uid in self._parts:
            for i in todo:
                self._shells[uid][i] = Event(env)
                self._finals[uid][i] = Event(env)
                self._streams[uid][i] = None
            return True
        parts = self.cluster.materialized.get(uid)
        existed = parts is not None
        if parts is None:
            parts = [None] * self.graph.job_vertex(op).parallelism
        self._parts[uid] = parts

        def initial(i: int, part: Optional[Partition]) -> Optional[Event]:
            # Existing partitions are exposed as already final.
            return (Event(env) if i in todo
                    else None if part is None else _fired(env, part))

        self._shells[uid] = [initial(i, p) for i, p in enumerate(parts)]
        self._finals[uid] = [initial(i, p) for i, p in enumerate(parts)]
        self._streams[uid] = [None] * len(parts)
        return existed

    def _streaming_mode(self, op: Operator) -> bool:
        """True when every input edge of ``op`` streams."""
        return bool(op.strategies) and all(s.is_streaming
                                           for s in op.strategies)

    def _wire(self, run: List[Tuple[Operator, List[int], bool]],
              need: Dict[int, Set[int]]) -> None:
        """Stream subscriptions among the partitions of one compute."""
        for op, todo, _ in run:
            for i in todo:
                self._n_subs[(op.uid, i)] = 0
        for op, todo, _ in run:
            streaming = self._streaming_mode(op)
            for k, inp in enumerate(op.inputs):
                computed = need[inp.uid]
                for i in todo:
                    if streaming and i in computed:
                        slot = self._n_subs[(inp.uid, i)]
                        self._consumer_slot[(op.uid, k, i)] = slot
                        self._n_subs[(inp.uid, i)] = slot + 1
                    else:
                        self._consumer_slot.pop((op.uid, k, i), None)
        # A partition emits a block stream when it can publish progressively
        # (sources generate blocks; maps relay their input's stream) and
        # someone downstream streams from it.
        for op, todo, _ in run:
            relays = isinstance(op, MapOp) and self._streaming_mode(op)
            for i in todo:
                self._emits[(op.uid, i)] = (
                    self._n_subs[(op.uid, i)] > 0
                    and (isinstance(op, HdfsSource)
                         or relays and self._emits.get(
                             (op.inputs[0].uid, i), False)))

    # -- entry points ------------------------------------------------------------
    def run(self) -> Generator[Event, None, None]:
        """Simulation process computing what the job's sinks need."""
        for r, region in enumerate(self.graph.pipeline_regions()):
            for op in region:
                self._region_of[op.uid] = r
        yield from self._compute(
            [(sink, range(self.graph.job_vertex(sink).parallelism))
             for sink in self.graph.sinks])

    def _compute(self, wanted: List[Tuple[Operator, Iterable[int]]]
                 ) -> Generator[Event, None, None]:
        """Run the partitions :meth:`_plan` finds missing as one pipeline."""
        need = self._plan(wanted)
        run = []
        for op in self.graph.order:
            todo = need.get(op.uid)
            if todo is None:
                continue
            existed = self._seed(op, todo)
            if todo:
                run.append((op, sorted(todo), existed))
        self._wire(run, need)
        procs = [self.env.process(self._run_op(op, todo, existed),
                                  name=f"pipeline:{op.name}")
                 for op, todo, existed in run]
        if procs:
            yield self.env.all_of(procs)

    # -- per-operator runner -------------------------------------------------------
    def _run_op(self, op: Operator, todo: List[int], existed: bool
                ) -> Generator[Event, None, None]:
        uid = op.uid
        if existed:
            # A fresh vertex at the dataset's own width: graph vertices
            # accumulate state (assigned blocks, attempts) that must not
            # double up across recoveries.
            jv = ExecutionJobVertex(op, len(self._parts[uid]))
            jv.expand()
        else:
            jv = self.graph.job_vertex(op)
            if isinstance(op, HdfsSink):
                self.cluster.hdfs.namenode.create_file(op.path)
        started: List[float] = []  # the first subtask's start instant
        if isinstance(op, HdfsSource):
            procs = self._start_source(op, jv, todo, started)
        elif isinstance(op, CollectionSource):
            procs = self._start_collection(op, jv, todo, started)
        elif self._streaming_mode(op):
            procs = [self.env.process(
                         self._streaming_slice(op, jv, i, started),
                         name=f"{op.name}[{i}]")
                     for i in todo]
        else:
            procs = yield from self._start_barrier(op, jv, todo, started)
        yield self.env.all_of(procs)

        end = self.env.now
        start = started[0] if started else end
        master = self.cluster.master_name
        if existed:
            self.metrics.subtasks += len(procs)
            self.metrics.recovered_partitions += len(procs)
            self.obs.emit("recover", master, "jobmanager", start, end,
                          op=op.name, parallelism=jv.parallelism)
            self.obs.emit("recover.done", op=op.name, partitions=len(procs))
            self.cluster.note_recovery_action("recompute")
        else:
            # Evicted lineage a recovery needs runs at the lost indices only.
            self.metrics.record_operator(op, len(todo), start, end)
            self.metrics.subtasks += len(procs)
            self.obs.emit("operator", master, f"op:{op.name}", start, end,
                          op=op.name, parallelism=len(todo),
                          region=self._region_of.get(uid, -1))
            self.metrics.materialized_uids.add(uid)
            if len(todo) == jv.parallelism:
                # Not an assignment: a concurrent job may have registered
                # the same dataset first.
                self.cluster.materialized.setdefault(uid, self._parts[uid])
        self.scheduler.release(jv)
        self._publish_queue_stats(op, todo)

    def _publish_queue_stats(self, op: Operator, todo: List[int]) -> None:
        streams = [self._streams[op.uid][i] for i in todo]
        streams = [s for s in streams if s is not None]
        if not streams:
            return
        max_depth = max(s.max_depth for s in streams)
        self.obs.emit("pipeline.queue", op=op.name, max_depth=max_depth,
                      stalls=sum(s.stall_count for s in streams))

    # -- operator modes ----------------------------------------------------------
    def _start_source(self, op: HdfsSource, jv: ExecutionJobVertex,
                      todo: List[int], started: List[float]) -> list:
        self.scheduler.schedule_source(jv, self.cluster.hdfs)
        procs = []
        for i in todo:
            vertex = jv.subtasks[i]
            shell = op.peek_output(vertex.assigned_blocks, i, vertex.worker)
            stream = None
            if self._emits[(op.uid, i)]:
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
                    self._n_subs[(op.uid, i)])
                self._streams[op.uid][i] = stream
            self._shells[op.uid][i].succeed(shell)
            procs.append(self.env.process(
                self._slice(op, jv, i, started, [], None, needs_slot=True,
                            out_stream=stream),
                name=f"{op.name}[{i}]"))
        return procs

    def _start_collection(self, op: CollectionSource, jv: ExecutionJobVertex,
                          todo: List[int], started: List[float]) -> list:
        parts = split_evenly(op.elements, jv.parallelism,
                             op.element_nbytes, op.scale)
        self.scheduler.schedule_collection_source(jv, parts)
        return [self.env.process(
                    self._slice(op, jv, i, started, [], parts[i],
                                needs_slot=True),
                    name=f"{op.name}[{i}]")
                for i in todo]

    def _gather(self, op: Operator, indices: Iterable[int]
                ) -> Generator[Event, None, List[Partition]]:
        """``op``'s partitions at ``indices`` once each is final."""
        parts = []
        for i in indices:
            parts.append((yield self._finals[op.uid][i]))
        return parts

    def _start_barrier(self, op: Operator, jv: ExecutionJobVertex,
                       todo: List[int], started: List[float]
                       ) -> Generator[Event, None, list]:
        """Wait for the input finals, run the exchanges, spawn subtasks."""
        alive = self.cluster.worker_is_alive
        producer_parts: List[List[Partition]] = []
        for inp, strat in zip(op.inputs, op.strategies):
            # A forward input reaches this path on the barriered reference
            # clock only (tests/flink/conftest.py::barriered: every operator
            # waits for its inputs' finals); it needs the same indices.
            indices = todo if strat.is_streaming else range(self._width(inp))
            parts = yield from self._gather(inp, indices)
            # A worker may have died between an input completing and this
            # barrier consuming it: recompute the lost partitions first.  A
            # barrier that recompute reruns does the same for a second loss.
            lost = [i for i, part in zip(indices, parts)
                    if not alive(part.worker)]
            if lost:
                yield from self._compute([(inp, lost)])
                parts = yield from self._gather(inp, indices)
            producer_parts.append(parts)

        per_subtask_inputs = yield from self._run_exchanges(
            op, jv, todo, producer_parts)
        return [self.env.process(
                    self._slice(op, jv, i, started, per_subtask_inputs[i],
                                None, needs_slot=True),
                    name=f"{op.name}[{i}]")
                for i in todo]

    def _run_exchanges(self, op: Operator, jv: ExecutionJobVertex,
                       todo: List[int], producer_parts: List[List[Partition]]
                       ) -> Generator[Event, None, List[List[Partition]]]:
        """Place ``op``'s subtasks in ``todo`` and ship every input edge to
        them.

        The exchange boundary of a pipeline region: ``producer_parts`` holds
        the final partitions of each input (of a forward input, those at
        ``todo``).  A forward partition is handed to its subtask whole;
        every other edge runs one :class:`~repro.flink.shuffle.Exchange`
        under an ``exchange:*`` span, to the subtasks in ``todo`` only.
        The result is each subtask's input list.
        """
        forward = next((parts for parts, strat
                        in zip(producer_parts, op.strategies)
                        if strat.is_streaming), None)
        for n, i in enumerate(todo):
            self.scheduler.schedule_subtask(
                jv.subtasks[i], None if forward is None else forward[n].worker)
        consumer_workers = [v.worker for v in jv.subtasks]
        only = None if len(todo) == jv.parallelism else set(todo)
        per_subtask_inputs: List[List[Partition]] = [
            [] for _ in range(jv.parallelism)]
        cluster = self.cluster
        for k, strat in enumerate(op.strategies):
            if strat.is_streaming:
                for i, part in zip(todo, producer_parts[k]):
                    per_subtask_inputs[i].append(
                        _forwarded(part, i, consumer_workers[i]))
                continue
            exchange = Exchange(
                self.env, cluster.network, cluster.serializer,
                strat, producer_parts[k], jv.parallelism, consumer_workers,
                key_fn=op.key_fn_for_input(k),
                combiner=op.combiner_for_input(k),
                only_consumers=only,
                hdfs=cluster.hdfs, flink=self.config.flink,
                block_nbytes=cluster.tuning.pipeline_block_nbytes)
            with self.obs.span(
                    "exchange", cluster.master_name, "exchange",
                    op=op.name, input=k, strategy=strat.name) as sp:
                result = yield self.env.process(
                    exchange.run(), name=f"exchange-{op.name}-{k}")
                sp.set(bytes=result.bytes_shuffled,
                       zero_copy=result.bytes_zero_copy)
            self.metrics.shuffle_bytes += result.bytes_shuffled
            self.metrics.shuffle_zero_copy_bytes += result.bytes_zero_copy
            self.metrics.shuffle_spill_bytes += result.bytes_spilled
            for j, part in enumerate(result.inputs):
                per_subtask_inputs[j].append(part)
        return per_subtask_inputs

    def _streaming_slice(self, op: Operator, jv: ExecutionJobVertex,
                         i: int, started: List[float]
                         ) -> Generator[Event, None, Partition]:
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
            slot = self._consumer_slot.get((uid, k, i))
            if stream is not None and slot is not None:
                if in_stream is None:
                    in_stream = stream
                    in_slot = slot
            else:
                # No stream: the producer's timing completes all at once —
                # this consumer may only proceed from its final.
                part = yield self._finals[inp_uid][i]
            collected.append(part)
            if colocate is None:
                colocate = part.worker
        vertex = jv.subtasks[i]
        self.scheduler.schedule_subtask(vertex, colocate)

        # Placement differs from the producer's home only when that worker
        # died (health fallback), in which case the producer's own retry is
        # already re-shipping the data — no extra transfer is charged here.
        inputs = [_forwarded(part, i, vertex.worker) for part in collected]

        out_stream: Optional[BlockStream] = None
        if self._emits[(uid, i)] and in_stream is not None:
            shell = op.functional_output(inputs[0], i, vertex.worker)
            ratio = (shell.nominal_nbytes / in_stream.total_nbytes
                     if in_stream.total_nbytes > 0 else 0.0)
            out_stream = BlockStream(
                self.env, [b * ratio for b in in_stream.block_nbytes],
                self.cluster.tuning.pipeline_queue_blocks,
                self._n_subs[(uid, i)])
            self._streams[uid][i] = out_stream
            self._shells[uid][i].succeed(shell)

        # Slot sharing applies only to a consumer that actually rides a
        # producer's stream (the producer holds the slot for the duration).
        # A final-gated consumer (e.g. downstream of a collection source)
        # starts after its producer released its slot, so it must claim
        # one of its own — otherwise slot contention would vanish.
        return (yield from self._slice(
            op, jv, i, started, inputs, None, needs_slot=in_stream is None,
            in_stream=in_stream, in_slot=in_slot, out_stream=out_stream))

    # -- subtask wrapper -----------------------------------------------------------
    def _slice(self, op: Operator, jv: ExecutionJobVertex, i: int,
               started: List[float], inputs: List[Optional[Partition]],
               preassigned: Optional[Partition], needs_slot: bool,
               in_stream: Optional[BlockStream] = None,
               in_slot: Optional[int] = None,
               out_stream: Optional[BlockStream] = None
               ) -> Generator[Event, None, Partition]:
        if not started:
            started.append(self.env.now)
        part = yield from self.jm._run_subtask(
            jv.subtasks[i], inputs, preassigned,
            self.metrics, self.injector, self.scheduler,
            needs_slot=needs_slot, in_stream=in_stream, in_slot=in_slot,
            out_stream=out_stream)
        self._parts[op.uid][i] = part
        if not self._shells[op.uid][i].triggered:
            self._shells[op.uid][i].succeed(part)
        self._finals[op.uid][i].succeed(part)
        return part
