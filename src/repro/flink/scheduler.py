"""Slot scheduler: assigns subtasks to workers with locality preferences.

Placement rules (matching Flink's behavior closely enough for the paper's
experiments):

* HDFS sources — blocks are dealt round-robin to subtasks; a subtask runs on
  a worker holding a replica of its first block when possible (input
  locality), otherwise on the least-loaded worker.
* Every other subtask is placed one at a time
  (:meth:`Scheduler.schedule_subtask`): a FORWARD consumer co-located with
  its input partition (chaining locality: no network on the forward edge),
  a shuffle/gather/rebalance consumer on the least-loaded worker.

Fault tolerance: every placement decision consults the cluster's worker
``health`` predicate, so nothing is ever scheduled onto a dead node, and
:meth:`Scheduler.reschedule` re-places a *retried* attempt — a retry is not
pinned to the worker that just failed it, it escapes to the least-loaded
healthy node (avoiding, when possible, the workers in ``avoid``).

The scheduler only picks *placement*; slot *contention* is enforced at run
time by each TaskManager's slot resource.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.common.errors import JobExecutionError
from repro.flink.graph import ExecutionJobVertex, ExecutionVertex
from repro.flink.plan import HdfsSource
from repro.flink.partition import Partition
from repro.hdfs.filesystem import HDFS
from repro.obs import OFF, Observability


class Scheduler:
    """Fills in worker assignments for an execution graph, operator by operator."""

    def __init__(self, worker_names, obs: Observability = OFF,
                 health: Optional[Callable[[str], bool]] = None,
                 tuning=None):
        # Either a static name list or a live-membership callable
        # (Cluster.member_names): elastic joiners become placement
        # candidates the moment they register, mid-job included.
        if callable(worker_names):
            self._names_fn: Callable[[], List[str]] = worker_names
        else:
            static = list(worker_names)
            self._names_fn = lambda: static
        self._load: Dict[str, int] = {w: 0 for w in self._names_fn()}
        # Placement decisions are "place" facts on the master's scheduler
        # lane (and the monitor's placement / queue-depth series).
        self.obs = obs
        # Health predicate (Cluster.worker_is_schedulable); None = all
        # healthy.  Dead *and draining* workers take no new placements.
        self._health = health
        # Optional repro.flink.config.RuntimeTuning: the autoscaler's
        # prefer-cache bias reads through this.
        self.tuning = tuning
        # Fault recency per worker (monotone sequence numbers): the
        # deterministic tie-breaker when every healthy worker is in a
        # reschedule's avoid set.
        self._last_fault: Dict[str, int] = {}
        self._fault_seq = 0

    @property
    def worker_names(self) -> List[str]:
        """Current placement candidates (live membership when elastic)."""
        names = self._names_fn()
        for w in names:
            if w not in self._load:
                self._load[w] = 0
        return names

    # -- helpers ---------------------------------------------------------------
    def _is_healthy(self, worker: str) -> bool:
        return self._health is None or self._health(worker)

    def _healthy_names(self) -> List[str]:
        names = [w for w in self.worker_names if self._is_healthy(w)]
        if not names:
            raise JobExecutionError("no healthy workers left in the cluster")
        return names

    # -- fault recency (reschedule fallback) -----------------------------------
    def note_fault(self, worker: str) -> None:
        """Record that ``worker`` just failed an attempt (or died)."""
        self._fault_seq += 1
        self._last_fault[worker] = self._fault_seq

    def all_avoided(self, avoid: Iterable[str]) -> bool:
        """True when every healthy worker is in ``avoid`` — the caller
        should wait a back-off before falling back (see ``reschedule``)."""
        avoid = set(avoid)
        names = [w for w in self.worker_names if self._is_healthy(w)]
        return bool(names) and all(w in avoid for w in names)

    def _least_loaded(self) -> str:
        return min(self._healthy_names(), key=lambda w: (self._load[w], w))

    def _assign(self, worker: str) -> str:
        self._load[worker] += 1
        return worker

    def _trace_place(self, op_name: str, subtask: int, worker: str,
                     reason: str) -> None:
        self.obs.emit("place", "master", "scheduler", op=op_name,
                      subtask=subtask, worker=worker, reason=reason,
                      depth=self._load[worker])

    # -- per-operator scheduling ---------------------------------------------------
    def schedule_source(self, jv: ExecutionJobVertex, hdfs: HDFS) -> None:
        """Assign HDFS blocks and workers to a source's subtasks."""
        op = jv.op
        assert isinstance(op, HdfsSource)
        blocks = hdfs.locate(op.path)
        # Contiguous ranges (like FileInputFormat splits), so that gathering
        # partitions in subtask order preserves the file's element order —
        # positional workloads (SpMV rows) depend on this.
        n = jv.parallelism
        bounds = [round(i * len(blocks) / n) for i in range(n + 1)]
        for i in range(n):
            jv.subtasks[i].assigned_blocks.extend(blocks[bounds[i]:bounds[i + 1]])
        for vertex in jv.subtasks:
            local_candidates = [
                w for w in self.worker_names
                if self._is_healthy(w)
                and vertex.assigned_blocks
                and vertex.assigned_blocks[0].is_local_to(w)
            ]
            worker = self._least_loaded()
            reason = "spread"
            if local_candidates:
                best_local = min(local_candidates,
                                 key=lambda w: self._load[w])
                # Prefer locality, but never at the cost of a second task
                # wave: if every local replica host is busier than the
                # least-loaded worker, spread instead (a remote HDFS read is
                # cheaper than queueing behind a slot).  Under the
                # autoscaler's prefer-cache bias (pcie_bound) locality wins
                # unconditionally — keeping GPU work next to its cached
                # input beats avoiding a slot queue.
                prefer = (self.tuning is not None
                          and self.tuning.prefer_local_placement)
                if prefer or self._load[best_local] <= self._load[worker]:
                    worker = best_local
                    reason = "block-local"
            vertex.worker = self._assign(worker)
            self._trace_place(op.name, vertex.subtask_index, vertex.worker,
                              reason)

    def schedule_collection_source(self, jv: ExecutionJobVertex,
                                   partitions: List[Partition]) -> None:
        """Spread a collection source's pre-split partitions across workers."""
        for vertex, part in zip(jv.subtasks, partitions):
            worker = self._least_loaded()
            vertex.worker = self._assign(worker)
            part.worker = vertex.worker
            self._trace_place(jv.op.name, vertex.subtask_index,
                              vertex.worker, "spread")

    def schedule_subtask(self, vertex: ExecutionVertex,
                         colocate: Optional[str] = None) -> str:
        """Lazily place one subtask (pipelined executor).

        Streamed (forward) edges preserve partitioning, so a consumer
        subtask is placed the moment its producer partition's home is known:
        co-located with it (``colocate``) when that worker is healthy,
        otherwise — and for a consumer behind an exchange, which has no
        home to follow — on the least-loaded healthy worker.
        """
        if colocate is not None and colocate in self.worker_names \
                and self._is_healthy(colocate):
            vertex.worker = self._assign(colocate)
            reason = "colocate-input"
        else:
            vertex.worker = self._assign(self._least_loaded())
            reason = "spread"
        self._trace_place(vertex.op.name, vertex.subtask_index,
                          vertex.worker, reason)
        return vertex.worker

    # -- retry re-placement ---------------------------------------------------------
    def reschedule(self, vertex: ExecutionVertex,
                   avoid: Iterable[str] = (),
                   reason: str = "retry") -> str:
        """Re-place a retried/displaced subtask onto a healthy worker.

        The previous assignment's load is released; the new attempt goes to
        the least-loaded healthy worker outside ``avoid`` when any exists.
        When *every* healthy worker is in ``avoid`` (single-node clusters,
        correlated failures) the fallback is deterministic: the
        least-recently-faulted healthy worker, ties broken by load then
        name — not an arbitrary member of the avoid set.  Callers that can
        afford it should check :meth:`all_avoided` first and wait a
        back-off before re-placing (the JobManager retry loop does).
        Raises :class:`~repro.common.errors.JobExecutionError` when no
        healthy worker remains at all.
        """
        avoid = set(avoid)
        if vertex.worker is not None and vertex.worker in self._load:
            self._load[vertex.worker] -= 1
        healthy = self._healthy_names()
        candidates = [w for w in healthy if w not in avoid]
        if candidates:
            pick = min(candidates, key=lambda w: (self._load[w], w))
        else:
            pick = min(healthy, key=lambda w: (self._last_fault.get(w, 0),
                                               self._load[w], w))
            reason = f"{reason}-fallback"
        vertex.worker = self._assign(pick)
        self._trace_place(vertex.op.name, vertex.subtask_index,
                          vertex.worker, reason)
        return vertex.worker

    def release(self, jv: ExecutionJobVertex) -> None:
        """Forget load contributed by a finished operator."""
        for vertex in jv.subtasks:
            if vertex.worker is not None:
                self._load[vertex.worker] -= 1
