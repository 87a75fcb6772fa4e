"""Cluster runtime and the user-facing session.

:class:`Cluster` wires together the simulation environment, network, HDFS,
workers and JobManager.  :class:`FlinkSession` is the driver-program entry
point: it creates DataSets and executes actions, each action running one job
on the simulated cluster and returning a :class:`JobResult` carrying both
the functional value and the simulated timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.common.network import Network
from repro.common.simclock import Environment
from repro.flink.config import ClusterConfig, RuntimeTuning
from repro.flink.dataset import DataSet
from repro.flink.fault import FailureInjector
from repro.flink.jobmanager import JobManager, JobMetrics
from repro.flink.partition import Partition
from repro.flink.plan import (
    CollectionSource,
    HdfsSource,
    Operator,
    topological_order,
)
from repro.flink.serialization import Serializer
from repro.flink.taskmanager import Worker
from repro.hdfs.filesystem import HDFS
from repro.obs import Observability


@dataclass
class JobResult:
    """What an action returns to the driver program."""

    value: Any
    metrics: JobMetrics

    @property
    def seconds(self) -> float:
        """Simulated wall time of the job."""
        return self.metrics.makespan


class Cluster:
    """A simulated CPU (or CPU-GPU) cluster: master + workers + HDFS."""

    master_name = "master"

    def __init__(self, config: Optional[ClusterConfig] = None,
                 env: Optional[Environment] = None):
        self.config = config or ClusterConfig()
        self.env = env or Environment()
        # Tracing + metrics + online monitoring for everything this
        # cluster runs (repro.obs).
        flink = self.config.flink
        self.obs = Observability(
            self.env, tracing=flink.enable_tracing,
            monitoring=flink.enable_monitoring,
            monitor_window_s=flink.monitor_window_s,
            flight_recorder=flink.enable_flight_recorder,
            flight_recorder_dir=flink.flight_recorder_dir)
        names = self.config.worker_names()
        for name in names:
            self.obs.register_worker(name)
        self.network = Network(self.env, [self.master_name] + names,
                               self.config.network)
        self.hdfs = HDFS(self.env, names, self.network,
                         replication=self.config.hdfs_replication,
                         disk=self.config.disk, obs=self.obs)
        self.workers: Dict[str, Worker] = {
            name: self._make_worker(name) for name in names
        }
        self.serializer = Serializer(
            self.config.flink.serde_bps,
            block_header_s=self.config.flink.shuffle_block_header_s)
        self.jobmanager = JobManager(self)
        # op uid -> materialized partitions; survives jobs for persisted ops.
        # The one record of where partitions live (Partition.worker).
        self.materialized: Dict[int, List[Partition]] = {}
        # Failure domains (repro.flink.chaos): the installed engine, plus
        # master-side death declarations and their waiter events.
        self.chaos = None
        self._declared_dead: Dict[str, float] = {}
        self._declare_waiters: Dict[str, Any] = {}
        # Elastic membership: the *live* member list (initial workers plus
        # joiners, minus drained/removed ones) in join order.  Logical
        # partitioning stays pinned to the initial shape (see
        # default_parallelism) so results are bit-identical under churn —
        # membership changes placement and timing only.
        self._members: List[str] = list(names)
        self._next_elastic_id = 0
        # Online-tunable knobs (autoscaler); consumers read these instead of
        # the frozen FlinkConfig fields they mirror.
        self.tuning = RuntimeTuning.from_flink(flink)
        # Recovery-action log: (time, kind) of every master-visible step
        # back toward steady state (declarations, re-placements, lineage
        # recomputes, migrations).  Appends only — never schedules events —
        # so the clock is unaffected.  ChaosEngine.summary() windows this
        # per fault to derive recovery latency / time-to-steady-state.
        self.recovery_log: List[Tuple[float, str]] = []

    @property
    def default_parallelism(self) -> int:
        """Default operator parallelism: one subtask per *initial* slot.

        Deliberately pinned to the configured shape, not live membership:
        hash routing, partition indices and collect order all derive from
        parallelism, so keeping it fixed is what makes results bit-identical
        under churn — joiners add capacity (slots, disks, NICs), not
        partitions.
        """
        return self.config.total_slots

    def _make_worker(self, name: str) -> Worker:
        """Build one worker node (GFlinkCluster also attaches a GPUManager)."""
        return Worker(self.env, name, self.config)

    # -- elastic membership -------------------------------------------------------
    def member_names(self) -> List[str]:
        """Current cluster members (initial + joined − departed), join order."""
        return list(self._members)

    def is_member(self, name: str) -> bool:
        return name in self._members

    def worker_is_schedulable(self, name: str) -> bool:
        """May new subtasks be placed on ``name``?  (alive member, not
        draining — the scheduler's health predicate)."""
        worker = self.workers.get(name)
        return (worker is not None and worker.alive
                and not worker.draining and name in self._members)

    def add_worker(self, name: Optional[str] = None) -> str:
        """Register a new worker node mid-run; returns its name.

        The joiner gets a TaskManager (with fresh slots), a co-located HDFS
        datanode (eligible for new block placements), a network port, and is
        enrolled with the monitor and the heartbeat plane.  It becomes
        schedulable immediately; when cached partitions exist, a background
        process migrates a fair share onto it over the zero-copy wire (see
        :mod:`repro.flink.rebalance`), so iterative jobs use the new
        capacity without recomputation.
        """
        if name is None:
            name = f"elastic{self._next_elastic_id}"
            self._next_elastic_id += 1
        if name in self.workers:
            raise ValueError(f"worker {name!r} already exists "
                             "(departed names cannot rejoin)")
        self.network.add_node(name)
        self.hdfs.add_datanode(name)
        self.workers[name] = self._make_worker(name)
        self._members.append(name)
        self.obs.register_worker(name)
        self.obs.emit("churn.join", self.master_name, "membership",
                      worker=name)
        if any(self.materialized.values()):
            from repro.flink.rebalance import Rebalancer
            self.env.process(Rebalancer(self).rebalance_onto(name),
                             name=f"rebalance-{name}")
        return name

    def drain_worker(self, name: str):
        """Simulation process: gracefully remove ``name`` from the cluster.

        Unlike :meth:`fail_worker` nothing is lost and nothing recomputes:
        the worker stops accepting placements, in-flight subtasks run to
        completion, resident cached partitions migrate to surviving members
        over the zero-copy wire, the co-located datanode is decommissioned
        (its replicas re-homed), and only then does the node leave.  The
        departure is recorded as a *declaration* so any straggler waiting on
        the node is released, but none of the failure counters fire.
        """
        from repro.flink.rebalance import Rebalancer
        if name not in self._members:
            raise ValueError(f"{name!r} is not a cluster member")
        worker = self.workers[name]
        if not worker.alive or worker.draining:
            return
        worker.draining = True
        started = self.env.now
        self.obs.emit("churn.drain.start", self.master_name, "membership",
                      worker=name)
        yield worker.taskmanager.quiesced()
        if not worker.alive:
            return  # killed mid-drain: the failure path owns recovery
        yield from Rebalancer(self).migrate_off(name)
        yield from self.hdfs.decommission(name)
        datanode = self.hdfs.datanodes.get(name)
        if datanode is not None and datanode.alive:
            datanode.fail()
        if name in self._members:
            self._members.remove(name)
        worker.alive = False
        worker.departed = True
        # Graceful departures are declared instantly (no detection latency)
        # and silently: nothing was lost, so the fault counters stay quiet.
        if name not in self._declared_dead:
            self._declared_dead[name] = self.env.now
            waiter = self._declare_waiters.pop(name, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(name)
        self.obs.emit("churn.drain.done", self.master_name, "membership",
                      worker=name, seconds=self.env.now - started)
        self.note_recovery_action("drain-complete")

    def remove_worker(self, name: str) -> None:
        """Abrupt leave: the node disappears mid-job, permanently.

        Reuses the whole failure-domain machinery — subtasks are
        interrupted, partitions lost (lineage recovery recomputes them),
        the datanode dies (reads fail over to surviving replicas) — and
        additionally strikes the node from the member list so it is never
        placed onto again even after future jobs reset scheduler state.
        """
        if name not in self._members:
            raise ValueError(f"{name!r} is not a cluster member")
        self._members.remove(name)
        self.obs.emit("churn.leave", self.master_name, "membership",
                      worker=name)
        self.fail_worker(name)

    def note_recovery_action(self, kind: str) -> None:
        """Log one recovery step (passive: never touches the clock)."""
        self.recovery_log.append((self.env.now, kind))

    # -- failure domains (repro.flink.chaos) --------------------------------------
    def install_chaos(self, schedule) -> Any:
        """Install a :class:`~repro.flink.chaos.ChaosSchedule`.

        Starts the chaos injector and the master's heartbeat monitor;
        returns the :class:`~repro.flink.chaos.ChaosEngine`.  Without this
        call no failure-detection process ever runs, so fault-free
        simulations keep a bit-identical clock.
        """
        from repro.flink.chaos import ChaosEngine
        if self.chaos is not None:
            raise ValueError("a chaos schedule is already installed")
        self.chaos = ChaosEngine(self, schedule)
        return self.chaos

    def worker_is_alive(self, name: Optional[str]) -> bool:
        """Liveness of ``name`` (unknown/driver-side locations count alive)."""
        worker = self.workers.get(name) if name is not None else None
        return worker.alive if worker is not None else True

    def fail_worker(self, name: str) -> None:
        """Kill a worker node: its whole failure domain goes down at once.

        Running and queued subtasks are interrupted, the partitions that
        name the worker are lost (lineage recovery will recompute what is
        needed), and the co-located HDFS datanode fails with it — reads fail
        over to surviving replicas.  Detection (the declaration that frees
        displaced subtasks to re-place) happens separately, through the
        chaos engine's heartbeat monitor — or immediately when no chaos
        engine is installed (manual kills in tests).
        """
        worker = self.workers[name]
        if not worker.alive:
            return
        worker.fail()
        datanode = self.hdfs.datanodes.get(name)
        if datanode is not None and datanode.alive:
            datanode.fail()
        self.obs.emit("worker.dead", self.master_name, "failures",
                      worker=name)
        if self.chaos is None:
            self.declare_worker_dead(name)
        else:
            self.chaos.ensure_monitor()

    def worker_is_declared_dead(self, name: str) -> bool:
        """True once the master has detected (declared) the worker's death."""
        return name in self._declared_dead

    def declare_worker_dead(self, name: str) -> None:
        """Master-side death declaration: wake everything waiting on it."""
        if name in self._declared_dead:
            return
        self._declared_dead[name] = self.env.now
        self.obs.emit("worker.declared_dead", self.master_name, "failures",
                      worker=name)
        self.note_recovery_action("declare")
        waiter = self._declare_waiters.pop(name, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(name)

    def worker_declared(self, name: str):
        """An event firing when ``name``'s death is declared.

        Already-declared (or still-alive) workers yield an event that fires
        immediately: displaced subtasks wait exactly the remaining detection
        latency, never longer.
        """
        if name in self._declared_dead or self.worker_is_alive(name):
            return self.env.timeout(0.0)
        waiter = self._declare_waiters.get(name)
        if waiter is None:
            waiter = self.env.event()
            self._declare_waiters[name] = waiter
        return waiter

    # -- data loading outside of a job (test/bench setup) ---------------------------
    def load_hdfs_file(self, path: str, chunks: List[Tuple[Any, int]]) -> None:
        """Write a file into HDFS instantly (setup helper, no time charged).

        Benchmarks use this to pre-populate inputs; the *jobs* then pay the
        read cost, which is what the paper measures.
        """
        now = self.env.now
        proc = self.env.process(self.hdfs.write(path, chunks))
        self.env.run(until=proc)
        # Rewind is impossible in a DES; instead verify setup happens at t=0
        # or accept the offset — metrics use makespan, not absolute time.
        assert self.env.now >= now


class FlinkSession:
    """Driver-program facade: create DataSets, run jobs.

    Also the base for the GFlink session (:class:`repro.core.runtime.GFlinkSession`),
    which adds GPU datasets on the same cluster.
    """

    def __init__(self, cluster: Cluster,
                 failure_injector: Optional[FailureInjector] = None):
        self.cluster = cluster
        self.failure_injector = failure_injector
        self.history: List[JobMetrics] = []

    # -- sources ----------------------------------------------------------------
    def from_collection(self, elements: Any, element_nbytes: float = 32.0,
                        scale: float = 1.0,
                        parallelism: Optional[int] = None) -> DataSet:
        """A DataSet from a driver-side collection."""
        return DataSet(self, CollectionSource(
            elements, element_nbytes, scale=scale, parallelism=parallelism))

    def read_hdfs(self, path: str, element_nbytes: float,
                  scale: float = 1.0,
                  parallelism: Optional[int] = None) -> DataSet:
        """A DataSet backed by an HDFS file (locality-aware block reads)."""
        return DataSet(self, HdfsSource(
            path, element_nbytes, scale=scale, parallelism=parallelism))

    # -- job execution ----------------------------------------------------------
    def execute_job(self, sink: Operator, job_name: str = "job"):
        """Simulation process running one job (``yield from`` inside a
        driver process).  This is what lets multiple applications share one
        cluster concurrently (Fig. 8c/d); :meth:`execute` is the blocking
        convenience wrapper.
        """
        jm = self.cluster.jobmanager
        metrics = yield from jm.run_job(
            [sink], job_name, failure_injector=self.failure_injector)
        value = jm.extract_result(sink)
        jm.cleanup(topological_order([sink]), metrics.materialized_uids)
        self.history.append(metrics)
        return JobResult(value=value, metrics=metrics)

    def execute(self, sink: Operator, job_name: str = "job") -> JobResult:
        """Run the plan rooted at ``sink`` as one job (drives the clock)."""
        proc = self.cluster.env.process(
            self.execute_job(sink, job_name), name=f"job-{job_name}")
        return self.cluster.env.run(until=proc)
