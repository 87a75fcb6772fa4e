"""Chaos engineering on the simulated clock: failure domains end-to-end.

The paper picks Flink for its reliability — "replication and error detection
to schedule around failures" (§1.1).  This module provides the *fault side*
of that story as a first-class, deterministic subsystem:

* :class:`ChaosSchedule` — a declarative, seeded schedule of faults: kill a
  worker at time *t*, fail a GPU device (ECC error / device OOM / kernel
  hang-timeout), or corrupt or time out a PCIe transfer (failing individual
  task attempts is :class:`~repro.flink.fault.FailureInjector`'s job, handed
  to the session).  :meth:`ChaosSchedule.random` draws Poisson fault
  arrivals from :mod:`repro.common.rng`, so a whole chaos run is
  reproducible from one integer.
* :class:`ChaosEngine` — the simulation process that applies the schedule
  to a live cluster and runs the master's *heartbeat monitor*: a dead worker
  stops heartbeating and is declared dead once
  ``FlinkConfig.heartbeat_timeout_s`` passes, which is what releases its
  displaced subtasks for re-placement and its lost partitions for lineage
  recovery (see :mod:`repro.flink.jobmanager`).
* :func:`backoff_delay` — exponential back-off with deterministic jitter for
  retried attempts, shared by the JobManager's retry loop and unit tests.

Nothing here runs unless a schedule is installed
(:meth:`repro.flink.runtime.Cluster.install_chaos`): a fault-free simulation
schedules zero extra events and its clock stays bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.common.rng import generator
from repro.common.simclock import Event
from repro.flink.config import FlinkConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flink.runtime import Cluster

__all__ = ["FaultKind", "ChaosEvent", "ChaosSchedule", "ChurnSchedule",
           "ChaosEngine", "backoff_delay", "values_equal",
           "GPU_FAULT_KINDS", "PCIE_FAULT_KINDS", "MEMBERSHIP_KINDS"]


def values_equal(a: Any, b: Any) -> bool:
    """Exact structural equality of two job results.

    Chaos acceptance is *identical results*, not approximately-equal ones:
    lineage recovery re-executes the same deterministic operators on the
    same inputs, and CPU fallback runs the same kernel function over the
    same page-sized blocks, so even floating-point reductions must come out
    bit-identical.  Handles numpy arrays and nested containers.
    """
    if hasattr(a, "shape") or hasattr(b, "shape"):  # numpy-like
        import numpy as np
        return bool(np.array_equal(np.asarray(a), np.asarray(b)))
    if isinstance(a, dict) and isinstance(b, dict):
        return (a.keys() == b.keys()
                and all(values_equal(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (len(a) == len(b)
                and all(values_equal(x, y) for x, y in zip(a, b)))
    return bool(a == b)


class FaultKind(Enum):
    """The failure domains the chaos engine can exercise."""

    WORKER_KILL = "worker-kill"    # whole node dies (TaskManager + datanode)
    GPU_ECC = "gpu-ecc"            # uncorrectable ECC error: device is gone
    GPU_OOM = "gpu-oom"            # transient device OOM: next GWork fails
    GPU_HANG = "gpu-hang"          # kernel hang: charged a watchdog timeout
    PCIE_CORRUPT = "pcie-corrupt"  # corrupted transfer: work must be redone
    PCIE_TIMEOUT = "pcie-timeout"  # stalled transfer: charged a timeout
    # Membership churn (not failures — elastic capacity changes):
    WORKER_JOIN = "worker-join"    # a new worker registers mid-job
    WORKER_DRAIN = "worker-drain"  # graceful leave: quiesce, migrate, retire
    WORKER_LEAVE = "worker-leave"  # abrupt leave: deregister + node death


#: GPU-device fault kinds (target a device; ECC is permanent).
GPU_FAULT_KINDS = (FaultKind.GPU_ECC, FaultKind.GPU_OOM, FaultKind.GPU_HANG)
#: PCIe transfer fault kinds (transient; the retried work goes through).
PCIE_FAULT_KINDS = (FaultKind.PCIE_CORRUPT, FaultKind.PCIE_TIMEOUT)
#: Elastic-membership event kinds (capacity changes, not faults).
MEMBERSHIP_KINDS = (FaultKind.WORKER_JOIN, FaultKind.WORKER_DRAIN,
                    FaultKind.WORKER_LEAVE)


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault: what happens, where, and when."""

    at: float
    kind: FaultKind
    worker: str
    device: Optional[int] = None  # GPU index on ``worker`` for device faults

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        needs_device = (self.kind in GPU_FAULT_KINDS
                        or self.kind in PCIE_FAULT_KINDS)
        if needs_device and self.device is None:
            object.__setattr__(self, "device", 0)


def _event_order(event: ChaosEvent) -> Tuple:
    return (event.at, event.worker, event.kind.value,
            -1 if event.device is None else event.device)


class ChaosSchedule:
    """A deterministic, seeded schedule of cluster faults.

    Build one fluently::

        schedule = (ChaosSchedule()
                    .kill_worker("worker1", at=40.0)
                    .fail_gpu("worker0", device=0, at=10.0)
                    .fault_pcie("worker0", device=0, at=20.0))

    or draw one at random (reproducibly) with :meth:`random`.  The same seed
    and the same schedule give a bit-identical simulated clock and identical
    results — chaos runs are diffable artifacts, like traces.
    """

    def __init__(self, events: Optional[List[ChaosEvent]] = None):
        self._events: List[ChaosEvent] = list(events or [])

    # -- builders ---------------------------------------------------------------
    def add(self, event: ChaosEvent) -> "ChaosSchedule":
        self._events.append(event)
        return self

    def kill_worker(self, worker: str, at: float) -> "ChaosSchedule":
        """Kill ``worker`` (TaskManager, partitions, datanode) at time ``at``."""
        return self.add(ChaosEvent(at=at, kind=FaultKind.WORKER_KILL,
                                   worker=worker))

    def fail_gpu(self, worker: str, device: int, at: float,
                 kind: FaultKind = FaultKind.GPU_ECC) -> "ChaosSchedule":
        """Fault GPU ``device`` of ``worker`` at time ``at``."""
        if kind not in GPU_FAULT_KINDS:
            raise ValueError(f"not a GPU fault kind: {kind}")
        return self.add(ChaosEvent(at=at, kind=kind, worker=worker,
                                   device=device))

    def fault_pcie(self, worker: str, device: int, at: float,
                   kind: FaultKind = FaultKind.PCIE_CORRUPT
                   ) -> "ChaosSchedule":
        """Corrupt/time out the next PCIe transfer on a device at ``at``."""
        if kind not in PCIE_FAULT_KINDS:
            raise ValueError(f"not a PCIe fault kind: {kind}")
        return self.add(ChaosEvent(at=at, kind=kind, worker=worker,
                                   device=device))

    # -- membership builders -----------------------------------------------------
    def join_worker(self, at: float,
                    name: Optional[str] = None) -> "ChaosSchedule":
        """A new worker joins at ``at``.  Auto-named ``elastic{k}`` (the
        cluster's own naming scheme) so later drain/leave events can target
        it by name."""
        if name is None:
            joins = sum(1 for e in self._events
                        if e.kind is FaultKind.WORKER_JOIN)
            name = f"elastic{joins}"
        return self.add(ChaosEvent(at=at, kind=FaultKind.WORKER_JOIN,
                                   worker=name))

    def drain_worker(self, worker: str, at: float) -> "ChaosSchedule":
        """Gracefully drain ``worker`` (quiesce, migrate state, retire)."""
        return self.add(ChaosEvent(at=at, kind=FaultKind.WORKER_DRAIN,
                                   worker=worker))

    def leave_worker(self, worker: str, at: float) -> "ChaosSchedule":
        """Abruptly deregister ``worker`` (leave = deregister + node death:
        displaced subtasks retry, lost partitions recompute by lineage)."""
        return self.add(ChaosEvent(at=at, kind=FaultKind.WORKER_LEAVE,
                                   worker=worker))

    # -- views -------------------------------------------------------------------
    @property
    def events(self) -> List[ChaosEvent]:
        """Scheduled faults in deterministic application order."""
        return sorted(self._events, key=_event_order)

    def __len__(self) -> int:
        return len(self._events)

    # -- random generation -----------------------------------------------------------
    @classmethod
    def random(cls, seed: int, duration_s: float, workers: List[str],
               gpus_per_worker: int = 0,
               worker_kill_rate: float = 0.0,
               gpu_fault_rate: float = 0.0,
               pcie_fault_rate: float = 0.0,
               start_s: float = 0.0) -> "ChaosSchedule":
        """Draw Poisson fault arrivals over ``[start_s, start_s+duration_s]``.

        Rates are events per second.  Arrivals use the conditional-
        uniformity construction (draw ``n ~ Poisson(rate * duration)``,
        then ``n`` uniforms over the window) rather than summing
        exponential gaps: the distributions are identical, but a window
        only a couple of mean gaps long no longer degenerates to "first
        arrival past the end, zero faults" for an unlucky seed — every
        drawn fault is guaranteed to land *inside* the job window.

        Worker kills are capped at ``len(workers) - 1`` distinct victims so
        at least one worker always survives to recover onto.  Each fault
        family draws from its own derived stream, so turning one rate up
        does not perturb the others.
        """
        schedule = cls()

        def arrivals(rng, rate: float) -> List[float]:
            n = int(rng.poisson(rate * duration_s))
            return sorted(start_s + float(u)
                          for u in rng.uniform(0.0, duration_s, size=n))

        if worker_kill_rate > 0 and len(workers) > 1:
            rng = generator(seed, "chaos", "worker-kill")
            victims: set = set()
            for t in arrivals(rng, worker_kill_rate):
                if len(victims) >= len(workers) - 1:
                    break
                alive = [w for w in workers if w not in victims]
                victim = alive[int(rng.integers(len(alive)))]
                victims.add(victim)
                schedule.kill_worker(victim, at=t)
        if gpu_fault_rate > 0 and gpus_per_worker > 0:
            rng = generator(seed, "chaos", "gpu-fault")
            for t in arrivals(rng, gpu_fault_rate):
                worker = workers[int(rng.integers(len(workers)))]
                device = int(rng.integers(gpus_per_worker))
                kind = GPU_FAULT_KINDS[int(rng.integers(len(GPU_FAULT_KINDS)))]
                schedule.fail_gpu(worker, device, at=t, kind=kind)
        if pcie_fault_rate > 0 and gpus_per_worker > 0:
            rng = generator(seed, "chaos", "pcie-fault")
            for t in arrivals(rng, pcie_fault_rate):
                worker = workers[int(rng.integers(len(workers)))]
                device = int(rng.integers(gpus_per_worker))
                kind = PCIE_FAULT_KINDS[
                    int(rng.integers(len(PCIE_FAULT_KINDS)))]
                schedule.fault_pcie(worker, device, at=t, kind=kind)
        return schedule


class ChurnSchedule(ChaosSchedule):
    """A :class:`ChaosSchedule` of *membership* events (joins/drains/leaves).

    Same machinery, different vocabulary: churn events are applied by the
    same :class:`ChaosEngine` injector, and a churn schedule can be mixed
    freely with fault events (a worker that joined at 10s can be killed at
    40s).  :meth:`random` draws a seeded Poisson join/leave timeline.
    """

    @classmethod
    def random(cls, seed: int, duration_s: float, workers: List[str],
               join_rate: float = 0.0, leave_rate: float = 0.0,
               drain_fraction: float = 0.5, min_workers: int = 1,
               start_s: float = 0.0) -> "ChurnSchedule":
        """Draw Poisson join/leave arrivals over ``[start_s, start_s+duration_s]``.

        Rates are events per second (conditional-uniformity construction,
        like :meth:`ChaosSchedule.random`).  Joins are named ``elastic{k}``
        in arrival order — the cluster's own auto-naming — so a later leave
        can hit a worker that joined earlier in the same run.  Each leave
        picks a uniform victim from the *current* pool (initial workers
        plus joiners minus departures) and is a graceful drain with
        probability ``drain_fraction``, an abrupt leave otherwise.  Leaves
        that would shrink the pool below ``min_workers`` are dropped.
        """
        schedule = cls()

        def arrivals(rng, rate: float) -> List[float]:
            n = int(rng.poisson(rate * duration_s))
            return sorted(start_s + float(u)
                          for u in rng.uniform(0.0, duration_s, size=n))

        join_rng = generator(seed, "churn", "join")
        leave_rng = generator(seed, "churn", "leave")
        timeline = [(t, "join") for t in arrivals(join_rng, join_rate)] + \
                   [(t, "leave") for t in arrivals(leave_rng, leave_rate)]
        timeline.sort()
        pool = list(workers)
        next_id = 0
        for t, what in timeline:
            if what == "join":
                name = f"elastic{next_id}"
                next_id += 1
                schedule.join_worker(at=t, name=name)
                pool.append(name)
            else:
                if len(pool) <= min_workers:
                    continue
                victim = pool.pop(int(leave_rng.integers(len(pool))))
                if float(leave_rng.random()) < drain_fraction:
                    schedule.drain_worker(victim, at=t)
                else:
                    schedule.leave_worker(victim, at=t)
        return schedule


def backoff_delay(flink: FlinkConfig, attempt: int, *identity: Any) -> float:
    """Back-off before retry ``attempt`` (1-based) of one subtask.

    ``base * 2**(attempt-1)`` capped at ``retry_backoff_max_s``, stretched by
    a deterministic jitter factor in ``[1, 1 + retry_backoff_jitter]`` drawn
    from ``retry_jitter_seed`` and the subtask ``identity`` — two retries of
    different subtasks de-synchronize (no thundering herd on the surviving
    workers) yet every run replays the exact same delays.
    """
    base = flink.retry_backoff_base_s
    if base <= 0.0 or attempt <= 0:
        return 0.0
    delay = min(base * (2.0 ** (attempt - 1)), flink.retry_backoff_max_s)
    jitter = flink.retry_backoff_jitter
    if jitter > 0.0:
        rng = generator(flink.retry_jitter_seed, "backoff",
                        *[str(part) for part in identity], str(attempt))
        delay *= 1.0 + jitter * float(rng.random())
    return delay


class ChaosEngine:
    """Applies a :class:`ChaosSchedule` to a live cluster + heartbeat monitor.

    Created by :meth:`repro.flink.runtime.Cluster.install_chaos`.  Two
    simulation processes:

    * the *injector* walks the schedule and applies each fault at its time;
    * the *heartbeat monitor* ticks every ``heartbeat_interval_s`` and
      declares a non-heartbeating worker dead after ``heartbeat_timeout_s``
      — the detection latency every displaced subtask observes before the
      scheduler re-places it.

    Both exit when their work is done so the event heap drains normally.
    """

    def __init__(self, cluster: "Cluster", schedule: ChaosSchedule):
        self.cluster = cluster
        self.schedule = schedule
        self.env = cluster.env
        self.applied: List[ChaosEvent] = []
        #: Events that could not be applied (e.g. drain/leave of a worker
        #: that never joined or already left), with the reason.
        self.skipped: List[Tuple[ChaosEvent, str]] = []
        #: worker -> declaration time (detection latency = this - killed_at).
        self.declared: Dict[str, float] = {}
        #: In-flight graceful-drain processes (spawned by WORKER_DRAIN).
        self.drains: List[Any] = []
        self.process = self.env.process(self._run(), name="chaos-injector")
        self._monitor = self.env.process(self._heartbeat_monitor(),
                                         name="heartbeat-monitor")

    # -- the injector process -----------------------------------------------------
    def _run(self) -> Generator[Event, None, None]:
        for event in self.schedule.events:
            if event.at > self.env.now:
                yield self.env.timeout(event.at - self.env.now)
            self._apply(event)

    def _apply(self, event: ChaosEvent) -> None:
        obs = self.cluster.obs
        if event.kind in MEMBERSHIP_KINDS:
            reason = self._check_membership(event)
            if reason is not None:
                self.skipped.append((event, reason))
                obs.emit("chaos.skip", "chaos", "injector",
                         kind=event.kind.value, worker=event.worker,
                         reason=reason)
                return
        obs.emit("chaos", "chaos", "injector", kind=event.kind.value,
                 worker=event.worker,
                 **({} if event.device is None
                    else {"device": event.device}))
        self.applied.append(event)
        if obs.recorder is not None:
            # Post-mortem bundle at the moment of injection: the trace
            # slice and metric windows show the cluster state the fault
            # landed in (host-side file I/O only — no simulation events).
            obs.recorder.record_fault(self.cluster, event)
        if event.kind is FaultKind.WORKER_JOIN:
            self.cluster.add_worker(event.worker)
            return
        if event.kind is FaultKind.WORKER_DRAIN:
            self.drains.append(self.env.process(
                self.cluster.drain_worker(event.worker),
                name=f"drain-{event.worker}"))
            return
        if event.kind is FaultKind.WORKER_LEAVE:
            self.cluster.remove_worker(event.worker)
            return
        if event.kind is FaultKind.WORKER_KILL:
            self.cluster.fail_worker(event.worker)
            return
        worker = self.cluster.workers.get(event.worker)
        gpumanager = getattr(worker, "gpumanager", None)
        if gpumanager is not None:
            gpumanager.inject_device_fault(event.device or 0, event.kind)

    def _check_membership(self, event: ChaosEvent) -> Optional[str]:
        """Why ``event`` cannot be applied right now, or None if it can."""
        cluster = self.cluster
        if event.kind is FaultKind.WORKER_JOIN:
            if event.worker in cluster.workers:
                return "name-already-used"
            return None
        worker = cluster.workers.get(event.worker)
        if worker is None or not cluster.is_member(event.worker):
            return "not-a-member"
        if not worker.alive:
            return "already-dead"
        if worker.draining:
            return "already-draining"
        return None

    # -- the heartbeat monitor ------------------------------------------------------
    def ensure_monitor(self) -> None:
        """Restart the monitor if it already drained (late manual kills)."""
        if self._monitor.triggered:
            self._monitor = self.env.process(self._heartbeat_monitor(),
                                             name="heartbeat-monitor")

    def _heartbeat_monitor(self) -> Generator[Event, None, None]:
        flink = self.cluster.config.flink
        interval = max(flink.heartbeat_interval_s, 1e-9)
        timeout = flink.heartbeat_timeout_s
        while True:
            if self.process.triggered and not self._undetected():
                return  # schedule fully applied, every death declared
            yield self.env.timeout(interval)
            now = self.env.now
            for name in self._undetected():
                worker = self.cluster.workers[name]
                # ``or now`` would misread a kill at exactly t=0.0 (falsy)
                # as "no timestamp" and never declare it.
                failed_at = worker.failed_at \
                    if worker.failed_at is not None else now
                # Every tick a dead worker stays undeclared is one missed
                # heartbeat — the worker_unhealthy alert's feed.
                self.cluster.obs.emit("heartbeat.missed", worker=name)
                if now - failed_at >= timeout:
                    self.declared[name] = now
                    self.cluster.declare_worker_dead(name)

    def _undetected(self) -> List[str]:
        """Dead-but-not-yet-declared workers, in stable name order."""
        return [name for name, worker
                in sorted(self.cluster.workers.items())
                if not worker.alive
                and not self.cluster.worker_is_declared_dead(name)]

    # -- reporting ------------------------------------------------------------------
    def recovery_latencies(self) -> List[Dict[str, Any]]:
        """Per-event recovery latency (time to steady state), derived by
        windowing the cluster's recovery-action log.

        Each applied event owns the window from its injection time to the
        next event's (the last window is open-ended).  Its recovery latency
        is the time from injection to the *last* recovery action inside the
        window — declarations, retry re-placements, lineage recomputes,
        migrations, drain completions.  An event whose window contains no
        actions (e.g. a join with nothing to rebalance) recovered in 0.
        """
        events = sorted(self.applied, key=_event_order)
        log = sorted(self.cluster.recovery_log)
        out = []
        for i, event in enumerate(events):
            end = events[i + 1].at if i + 1 < len(events) else float("inf")
            window = [(t, kind) for t, kind in log if event.at <= t < end]
            latency = max((t for t, _ in window), default=event.at) - event.at
            out.append({
                "at": event.at,
                "kind": event.kind.value,
                "worker": event.worker,
                "recovery_latency_s": latency,
                "actions": [kind for _, kind in window],
            })
        return out

    def summary(self) -> Dict[str, Any]:
        """Applied faults + detection/recovery latencies, for resilience
        reports."""
        from repro.obs.metrics import Histogram
        kills = {e.worker: e.at for e in self.applied
                 if e.kind is FaultKind.WORKER_KILL}
        per_event = self.recovery_latencies()
        hist = Histogram("chaos.recovery_s", ())
        for entry in per_event:
            hist.observe(entry["recovery_latency_s"])
        recovery: Dict[str, Any] = {}
        if per_event:
            recovery = {
                "count": float(hist.count),
                "max": hist.vmax,
                "p50": hist.percentile(0.50),
                "p95": hist.percentile(0.95),
                "p99": hist.percentile(0.99),
            }
        return {
            "events_applied": len(self.applied),
            "events_skipped": len(self.skipped),
            "by_kind": {
                kind.value: sum(1 for e in self.applied if e.kind is kind)
                for kind in FaultKind
                if any(e.kind is kind for e in self.applied)
            },
            "workers_killed": sorted(kills),
            "detection_latency_s": {
                name: self.declared[name] - kills[name]
                for name in sorted(self.declared) if name in kills
            },
            "recovery_latency_s": recovery,
            "per_event": per_event,
        }
