"""JobManager: compiles plans, schedules subtasks, supervises execution.

One JobManager runs on the master ("the coordinator of the GFlink system",
paper §3.3).  For each job it:

1. charges the job-submission overhead (Eq. 1's ``T_submit``),
2. compiles the logical plan into an :class:`~repro.flink.graph.ExecutionGraph`,
3. hands the graph to the block pipeline
   (:class:`~repro.flink.pipeline.PipelinedExecutor`), which runs exactly
   the partitions the sinks need that do not already exist on a live
   worker — persisted datasets from earlier jobs (the in-memory iteration
   path) are reused, lost partitions and their missing lineage recomputed —
   with the data exchange at every pipeline-region boundary,
4. runs each subtask in a task slot with per-task scheduling/deploy
   overhead and retry-on-failure (:meth:`JobManager._run_subtask`),
5. extracts sink results and evicts non-persisted intermediates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Generator, List, Optional, Set,
                    TYPE_CHECKING)

from repro.common.errors import JobExecutionError
from repro.common.simclock import Environment, Event, InterruptError
from repro.flink.chaos import backoff_delay
from repro.flink.fault import FailureInjector, TaskFailure
from repro.flink.graph import ExecutionGraph, ExecutionVertex
from repro.flink.iterators import is_vectorized
from repro.flink.partition import Partition
from repro.flink.pipeline import PipelinedExecutor
from repro.flink.plan import (
    CollectSink,
    CountSink,
    HdfsSink,
    HdfsSource,
    OpCost,
    Operator,
)
from repro.flink.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flink.runtime import Cluster


@dataclass
class OperatorSpan:
    """Wall-clock span of one operator's subtask wave."""

    name: str
    parallelism: int
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class JobMetrics:
    """Accounting for one job execution (drives Eq. 1–4 style analysis)."""

    job_name: str
    started_at: float = 0.0
    finished_at: float = 0.0
    submit_s: float = 0.0
    compute_s: float = 0.0          # summed across subtasks (CPU-seconds)
    gpu_kernel_s: float = 0.0       # summed kernel time (GFlink operators)
    #: Kernel seconds per kernel name — fused chains report every stage
    #: separately here.
    gpu_stage_seconds: Dict[str, float] = field(default_factory=dict)
    pcie_bytes: float = 0.0         # H2D+D2H traffic (GFlink operators)
    shuffle_bytes: float = 0.0
    #: Exchange bytes that took the columnar zero-copy path (no per-row
    #: serde; counted regardless of locality) and bytes spilled through
    #: HDFS because a destination payload exceeded the spill threshold.
    shuffle_zero_copy_bytes: float = 0.0
    shuffle_spill_bytes: float = 0.0
    hdfs_read_bytes: float = 0.0
    hdfs_write_bytes: float = 0.0
    retries: int = 0
    subtasks: int = 0
    #: Partitions recomputed by lineage recovery after a worker loss.
    recovered_partitions: int = 0
    #: GPU subtasks that degraded to CPU execution (all devices blacklisted).
    fallback_tasks: int = 0
    #: Producer stalls on full block queues, count and stalled seconds
    #: (zero for a job with no streaming edge).
    pipeline_backpressure_stalls: int = 0
    pipeline_backpressure_s: float = 0.0
    operator_spans: Dict[int, OperatorSpan] = field(default_factory=dict)
    #: Operators materialized by THIS job (cleanup is per-job so concurrent
    #: applications on one cluster do not evict each other's intermediates).
    materialized_uids: Set[int] = field(default_factory=set)

    @property
    def makespan(self) -> float:
        """Simulated wall time of the whole job."""
        return self.finished_at - self.started_at

    def record_operator(self, op: Operator, parallelism: int,
                        start: float, end: float) -> None:
        """Record the span of ``op``'s subtask wave."""
        self.operator_spans[op.uid] = OperatorSpan(
            name=op.name, parallelism=parallelism, start=start, end=end)

    def span_of(self, name: str) -> Optional[OperatorSpan]:
        """First operator span with the given name (convenience for tests)."""
        for span in self.operator_spans.values():
            if span.name == name:
                return span
        return None


class TaskContext:
    """Everything a subtask needs at run time.

    GPU operators reach their worker's GPUManager via ``worker.gpumanager``;
    CPU operators pay for their work through :meth:`charge`.
    """

    def __init__(self, cluster: "Cluster", vertex: ExecutionVertex,
                 metrics: JobMetrics,
                 preassigned_partition: Optional[Partition] = None,
                 in_stream=None, in_slot: Optional[int] = None,
                 out_stream=None):
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.worker = cluster.workers[vertex.worker]
        self.master_name = cluster.master_name
        self.config = cluster.config
        self.network = cluster.network
        self.hdfs = cluster.hdfs
        self.serializer = cluster.serializer
        self.metrics = metrics
        self.subtask_index = vertex.subtask_index
        self.assigned_blocks = vertex.assigned_blocks
        self.preassigned_partition = preassigned_partition
        self.op_name = vertex.op.name
        # Block-stream wiring (repro.flink.pipeline.BlockStream):
        # ``in_stream`` carries the input partition's block availability
        # (``in_slot`` is this consumer's subscriber cursor), ``out_stream``
        # is where this subtask publishes its own blocks.  All None for a
        # subtask behind an exchange boundary.  Per-attempt: a retry gets a
        # fresh context, so its charges replay from the start (streams are
        # idempotent).
        self.in_stream = in_stream
        self.in_slot = in_slot
        self.out_stream = out_stream
        self._stream_consumed = False

    def stream_reserve(self, stream, block_index: int
                       ) -> Generator[Event, None, None]:
        """Producer-side credit wait on a bounded block stream.

        A wait on a queue that is actually full is a ``backpressure`` span
        on this worker's "pipeline" lane.  The stalled seconds are totalled
        when the wait ends however it ends — a worker kill interrupts it —
        so the job's total agrees with the span's.
        """
        evt = stream.reserve(block_index)
        if evt.triggered:
            yield evt
            return
        stream.stall_count += 1
        self.metrics.pipeline_backpressure_stalls += 1
        t0 = self.env.now
        try:
            with self.cluster.obs.span(
                    "backpressure", self.worker.name, "pipeline",
                    op=self.op_name, subtask=self.subtask_index,
                    block=block_index):
                yield evt
        finally:
            self.metrics.pipeline_backpressure_s += self.env.now - t0

    def charge(self, cost: OpCost, nominal_elements: float,
               nominal_nbytes: float, *udfs: Callable
               ) -> Generator[Event, None, None]:
        """Charge CPU time for an operator — the one place that picks the
        CPU price list.

        **Iterator** (§3.1, the default): ``time = n * (iterator_overhead +
        flops / per-core-throughput)`` — each element pays a virtual call
        before its arithmetic; ``cost.element_overhead_s`` overrides the
        engine default for object-heavy UDFs (see
        :class:`repro.flink.plan.OpCost`).

        **Block** — when the operator names its ``udfs`` and every one is
        marked :func:`repro.flink.iterators.vectorized`: ``time = n_blocks *
        block_overhead + n * flops / simd-throughput``, one dispatch per
        pipeline-sized block of ``nominal_nbytes`` instead of a virtual
        call per element, arithmetic at the SIMD rate
        (:attr:`repro.flink.config.CPUSpec.simd_flops_per_core`).
        Functional results are the same either way.

        The *first* charge of a streaming consumer is interleaved with
        upstream block arrivals: the per-block share of the total waits for
        that block to be published, then (if this operator relays a stream)
        republishes it downstream.  Both price lists are linear, so the
        interleaved charges sum to exactly the one-shot total; only the
        clock shape differs.
        """
        flink = self.config.flink
        if udfs and all(is_vectorized(u) for u in udfs):
            # Block width through the *tuning* overlay, not the frozen
            # config: the autoscaler widens it online; results are unchanged
            # (the charge model only shifts dispatch overhead).
            n_blocks = max(1, math.ceil(
                nominal_nbytes / self.cluster.tuning.pipeline_block_nbytes))
            seconds = (n_blocks * flink.block_overhead_s
                       + nominal_elements * cost.flops_per_element
                       / self.config.cpu.simd_flops_per_core)
            self.cluster.obs.emit("cpu.vectorized", op=self.op_name,
                                  blocks=n_blocks)
        else:
            overhead = (flink.element_overhead_s
                        if cost.element_overhead_s is None
                        else cost.element_overhead_s)
            per_element = (overhead + cost.flops_per_element
                           / self.config.cpu.flops_per_core)
            seconds = nominal_elements * per_element
        yield from self._charge_linear(seconds)

    def _charge_linear(self, seconds: float
                       ) -> Generator[Event, None, None]:
        """Charge ``seconds`` of CPU time, streaming-aware (:meth:`charge`)."""
        self.metrics.compute_s += seconds
        stream = self.in_stream
        if (stream is not None and not self._stream_consumed
                and stream.n_blocks > 0 and stream.total_nbytes > 0):
            self._stream_consumed = True
            out = self.out_stream
            charged = 0.0
            for k in range(stream.n_blocks):
                if out is not None:
                    yield from self.stream_reserve(out, k)
                yield stream.when_blocks(k + 1)
                # Last block absorbs rounding so the sum is exact.
                target = seconds if k == stream.n_blocks - 1 else (
                    seconds * stream.cum_nbytes(k + 1) / stream.total_nbytes)
                if target > charged:
                    yield self.env.timeout(target - charged)
                    charged = target
                stream.ack(self.in_slot, k + 1)
                if out is not None:
                    out.publish(k)
            if out is not None:
                out.close()
            return
        yield self.env.timeout(seconds)

    def hdfs_append(self, path: str, payload: Any,
                    nbytes: int) -> Generator[Event, None, None]:
        """Append one block to ``path`` from this subtask's worker."""
        yield from self.hdfs.append_block(path, payload, nbytes,
                                          writer_node=self.worker.name)


class JobManager:
    """Coordinates job execution on the cluster master."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.env = cluster.env
        self.config = cluster.config

    # -- main entry point ------------------------------------------------------
    def run_job(self, sinks: List[Operator], job_name: str,
                failure_injector: Optional[FailureInjector] = None
                ) -> Generator[Event, None, JobMetrics]:
        """Simulation process executing one job; returns its metrics.

        Sink outputs are left in ``cluster.materialized`` for the session to
        extract before cleanup (see :meth:`cleanup`).
        """
        metrics = JobMetrics(job_name=job_name, started_at=self.env.now)
        hdfs_read0 = self.cluster.hdfs.total_bytes_read()
        hdfs_write0 = self.cluster.hdfs.total_bytes_written()
        obs = self.cluster.obs
        master = self.cluster.master_name

        with obs.span("job", master, "jobmanager", job=job_name):
            with obs.span("job.submit", master, "jobmanager", job=job_name):
                yield self.env.timeout(self.config.flink.job_submit_s)
            metrics.submit_s = self.config.flink.job_submit_s

            flink = self.config.flink
            if flink.enable_chaining or flink.enable_gpu_chaining:
                from repro.flink.optimizer import apply_chaining
                sinks = apply_chaining(sinks, cpu=flink.enable_chaining,
                                       gpu=flink.enable_gpu_chaining)
            graph = ExecutionGraph(sinks, self.cluster.default_parallelism)
            # Live membership, not the static config list: workers that
            # join mid-job become placement candidates immediately, drained
            # and departed ones stop being considered.
            scheduler = Scheduler(self.cluster.member_names, obs=obs,
                                  health=self.cluster.worker_is_schedulable,
                                  tuning=self.cluster.tuning)

            yield from PipelinedExecutor(self, graph, scheduler, metrics,
                                         failure_injector).run()

            metrics.finished_at = self.env.now
        metrics.hdfs_read_bytes = (self.cluster.hdfs.total_bytes_read()
                                   - hdfs_read0)
        metrics.hdfs_write_bytes = (self.cluster.hdfs.total_bytes_written()
                                    - hdfs_write0)
        obs.emit("job.totals", job=job_name, subtasks=metrics.subtasks,
                 shuffle_bytes=metrics.shuffle_bytes,
                 zero_copy_bytes=metrics.shuffle_zero_copy_bytes,
                 spill_bytes=metrics.shuffle_spill_bytes)
        return metrics

    def _run_subtask(self, vertex: ExecutionVertex,
                     inputs: List[Partition],
                     preassigned: Optional[Partition],
                     metrics: JobMetrics,
                     injector: Optional[FailureInjector],
                     scheduler: Scheduler,
                     needs_slot: bool = True,
                     in_stream=None, in_slot: Optional[int] = None,
                     out_stream=None
                     ) -> Generator[Event, None, Partition]:
        op = vertex.op
        flink = self.config.flink
        obs = self.cluster.obs
        proc = self.env.active_process
        while True:
            # Re-resolved each attempt: a retried or displaced subtask may
            # have been re-placed onto a different worker.
            worker = self.cluster.workers[vertex.worker]
            # One lane per task slot: concurrent subtasks on a worker render
            # on separate rows, queued ones stack up in simulated time.
            lane = f"slot{vertex.subtask_index % self.config.slots}"
            obs.emit("task.queued", worker.name, lane)
            failure: Optional[TaskFailure] = None
            worker_lost = False
            worker.taskmanager.register_running(proc)
            try:
                with worker.taskmanager.claim_slot(
                        shared=not needs_slot) as slot:
                    if slot is not None:
                        yield slot
                    overhead = flink.task_schedule_s + flink.task_deploy_s
                    with obs.span("task", worker.name, lane, op=op.name,
                                  subtask=vertex.subtask_index,
                                  attempt=vertex.attempts,
                                  deploy_s=overhead) as sp:
                        yield self.env.timeout(overhead)
                        ctx = TaskContext(self.cluster, vertex, metrics,
                                          preassigned_partition=preassigned,
                                          in_stream=in_stream,
                                          in_slot=in_slot,
                                          out_stream=out_stream)
                        try:
                            if injector is not None and injector.check(
                                    op.name, vertex.subtask_index,
                                    vertex.attempts):
                                obs.emit("fault.injected", worker.name, lane,
                                         op=op.name,
                                         subtask=vertex.subtask_index,
                                         attempt=vertex.attempts)
                                raise TaskFailure(op.name,
                                                  vertex.subtask_index,
                                                  vertex.attempts)
                            if out_stream is not None \
                                    and isinstance(op, HdfsSource):
                                partition = yield from op.execute_streaming(
                                    ctx, out_stream)
                            else:
                                partition = yield from op.execute_subtask(
                                    ctx, inputs)
                            if in_stream is not None:
                                # A consumer may not outrun its input's
                                # timing plane (e.g. a zero-cost relay).
                                yield in_stream.when_blocks(
                                    in_stream.n_blocks)
                                in_stream.ack_all(in_slot)
                            if out_stream is not None:
                                out_stream.close()
                        except TaskFailure as exc:
                            sp.set(failed=True)
                            failure = exc
                if failure is None:
                    worker.taskmanager.tasks_executed += 1
                    if vertex.attempts:
                        self.cluster.note_recovery_action("retry-ok")
                    return partition
            except InterruptError as exc:
                # The worker died under us (slot wait included): the attempt
                # is charged, and the retry must escape to another node.
                worker_lost = True
                failure = TaskFailure(
                    op.name, vertex.subtask_index, vertex.attempts,
                    cause=f"worker {worker.name} lost: {exc.cause}")
            finally:
                worker.taskmanager.unregister_running(proc)

            vertex.attempts += 1
            metrics.retries += 1
            obs.emit("task.retry", worker.name, lane, op=op.name,
                     subtask=vertex.subtask_index,
                     attempt=vertex.attempts - 1,
                     cause="worker-lost" if worker_lost
                     else type(failure).__name__)
            if vertex.attempts > flink.max_task_retries:
                raise JobExecutionError(
                    f"{op.name}[{vertex.subtask_index}] failed "
                    f"after {vertex.attempts} attempts"
                ) from failure
            scheduler.note_fault(worker.name)
            if worker_lost:
                # Wait for the master to *declare* the death (heartbeat
                # timeout), then re-place away from the dead node.  If the
                # avoid set covers every healthy worker (correlated
                # failures), wait a back-off first — the fallback then
                # deterministically picks the least-recently-faulted node.
                yield self.cluster.worker_declared(worker.name)
                avoid = (worker.name,)
                if scheduler.all_avoided(avoid):
                    delay = backoff_delay(flink, vertex.attempts, op.name,
                                          vertex.subtask_index)
                    if delay > 0:
                        yield self.env.timeout(delay)
                scheduler.reschedule(vertex, avoid=avoid,
                                     reason="worker-lost")
                self.cluster.note_recovery_action("replace")
                obs.emit("task.displaced", worker.name, lane, op=op.name,
                         subtask=vertex.subtask_index, worker=vertex.worker)
            else:
                delay = backoff_delay(flink, vertex.attempts, op.name,
                                      vertex.subtask_index)
                if delay > 0:
                    yield self.env.timeout(delay)
                scheduler.reschedule(vertex, reason="retry")

    # -- cleanup -------------------------------------------------------------------
    def extract_result(self, sink: Operator) -> Any:
        """Pull a sink's driver-visible value from the materialized store."""
        partitions = self.cluster.materialized.get(sink.uid, [])
        if isinstance(sink, CollectSink):
            return partitions[0].elements if partitions else []
        if isinstance(sink, CountSink):
            return partitions[0].elements[0] if partitions else 0.0
        if isinstance(sink, HdfsSink):
            return sink.path
        return None

    def cleanup(self, graph_order: List[Operator],
                materialized_uids: Set[int]) -> None:
        """Evict this job's non-persisted intermediates and sink outputs."""
        for op in graph_order:
            if op.uid not in materialized_uids:
                continue
            if not op.persisted:
                self.cluster.materialized.pop(op.uid, None)
