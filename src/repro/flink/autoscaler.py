"""Profiler-driven autoscaler: elastic capacity + online tuning.

The :class:`Autoscaler` is a master-side control loop (a simulation process
ticking every ``policy.interval_s``) that reads the cluster model — the
TaskManagers' active subtasks and HDFS's own block-read counts — and maps
each bottleneck class onto one concrete actuation:

=================  ============================================  =========================
signal             meaning                                       action
=================  ============================================  =========================
``sched_bound``    slot pressure: queued+running subtasks per    ``Cluster.add_worker()``
                   member slot exceeds ``slot_pressure_high``    (more slots, up to
                   (task waves queue behind slots)               ``max_workers``)
``hdfs_bound``     remote fraction of ``HDFS.block_reads``       deepen the pipelined
                   exceeds ``remote_read_fraction_high``         read queue
                   (source parallelism starves on the network)   (``pipeline_queue_blocks``)
``pcie_bound``     a profile summary classifies an operator as   prefer cache/block-local
                   PCIe-dominated (H2D/D2H on the critical       placement unconditionally;
                   path)                                         widen pipeline blocks
=================  ============================================  =========================

Live counters (slot pressure, read locality) are polled every tick;
``pcie_bound`` comes from offline profile summaries fed in through
:meth:`Autoscaler.observe_profile` (e.g. the previous run's summary, or a
mid-run flush) and is applied when observed.  Actuations write the
cluster's mutable :class:`~repro.flink.config.RuntimeTuning` overlay —
never the frozen config — so logical partitioning, and with it the job's
result, is untouched: the autoscaler changes *when and where* work runs,
not *what* runs.

Two *predictive* policies ride on a per-tick
:class:`~repro.obs.anomaly.SlidingTrend` of the measured slot pressure
(each tick also emits the sample as a ``slot_pressure`` fact, so the
monitor's ``scheduler.slot_pressure`` gauge and its trends show it, but
nothing here reads a sink back: the decisions are the same with
observability on or off).  A *rising* pressure trend adds a worker before
the hard ``slot_pressure_high`` threshold is crossed; a pressure that
stays below ``slot_pressure_low`` for ``low_pressure_windows`` consecutive
ticks with a non-rising trend **drains** the most recently joined
schedulable worker (never below ``min_workers``).  Draining migrates
cached partitions and keeps logical parallelism pinned, so results stay
bit-identical.

Every decision is appended to :attr:`Autoscaler.decisions`, traced as an
alert-style instant on the master's ``autoscaler`` lane, and counted under
``autoscale.decisions`` so the resilience report and dashboard can show
what the loop did and why.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, TYPE_CHECKING

from repro.common.simclock import Event
from repro.obs.anomaly import SlidingTrend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flink.runtime import Cluster

__all__ = ["AutoscalerPolicy", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Thresholds and actuation limits for one autoscaler instance."""

    #: Control-loop tick (simulated seconds).
    interval_s: float = 2.0
    #: Minimum spacing between two scale-out actuations.
    cooldown_s: float = 5.0
    #: Hard ceiling on cluster size (members), counting the initial workers.
    max_workers: int = 8
    #: Queued+running subtasks per member slot above which the cluster is
    #: scheduler-bound and a worker is added.
    slot_pressure_high: float = 1.5
    #: Remote fraction of HDFS block reads above which the read side is
    #: network-starved and the pipelined read queue is deepened.
    remote_read_fraction_high: float = 0.5
    #: Ceilings for the tuning actuations (never raised past these).
    max_queue_blocks: int = 16
    max_block_nbytes: float = 64 * 2**20
    #: Predictive scale-up: pressure slope (per tick) above which a worker
    #: is added *before* ``slot_pressure_high`` is crossed, provided the
    #: level is already past half the hard threshold.
    pressure_slope_high: float = 0.05
    #: Scale-down: pressure below ``slot_pressure_low`` for
    #: ``low_pressure_windows`` consecutive ticks with a non-rising trend
    #: (slope <= ``drain_slope_max``) drains one worker, never below
    #: ``min_workers`` schedulable members.
    slot_pressure_low: float = 0.25
    low_pressure_windows: int = 5
    min_workers: int = 1
    drain_slope_max: float = 0.0
    #: Ticks of pressure history feeding the trend estimate.
    trend_window: int = 8


@dataclass
class ScaleDecision:
    """One actuation (or explicit hold) taken by the control loop."""

    time: float
    signal: str      # "sched_bound" | "hdfs_bound" | "pcie_bound"
    action: str      # "add_worker" | "deepen_queue" | "prefer_cache" | ...
    detail: Dict[str, Any] = field(default_factory=dict)


class Autoscaler:
    """Online capacity/tuning controller for one :class:`Cluster`."""

    def __init__(self, cluster: "Cluster",
                 policy: Optional[AutoscalerPolicy] = None):
        self.cluster = cluster
        self.env = cluster.env
        self.policy = policy or AutoscalerPolicy()
        self.decisions: List[ScaleDecision] = []
        self._stop = False
        self._process = None
        self._last_scale_at = -float("inf")
        # HDFS block-read counts at the previous tick, so each window
        # evaluates the *delta* (recent behavior), not the lifetime mix.
        self._reads_seen = {"local": 0, "remote": 0}
        # Trend state over per-tick pressure samples; ticks of low
        # pressure accumulate in _low_run.
        self._pressure_trend = SlidingTrend(window=self.policy.trend_window)
        self._low_run = 0
        # Scale-down only arms after the cluster has been under load at
        # least once: draining during the initial HDFS load phase (when
        # pressure is still zero) would race the block write pipeline.
        self._busy_seen = False
        #: Drain processes started by scale-down decisions.
        self.drains: List[Any] = []

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Install the control loop into the cluster's simulation."""
        if self._process is None:
            self._process = self.env.process(self._run(), name="autoscaler")

    def stop(self) -> None:
        """Stop evaluating; a tick already scheduled becomes a no-op."""
        self._stop = True

    def _run(self) -> Generator[Event, None, None]:
        while not self._stop:
            yield self.env.timeout(self.policy.interval_s)
            if self._stop:
                break
            self._evaluate()

    # -- external signals --------------------------------------------------------
    def observe_profile(self, summary: Dict[str, Any]) -> None:
        """Feed a :mod:`repro.obs.profile` summary into the controller.

        Any operator classified ``pcie_bound`` applies the prefer-cache /
        wider-blocks actuation at once, naming those operators.
        """
        ops = (summary or {}).get("operators", {})
        bound = sorted(op for op, entry in ops.items()
                       if entry.get("class") == "pcie_bound")
        if bound:
            self._apply_pcie(bound)

    # -- one evaluation ------------------------------------------------------------
    def _evaluate(self) -> None:
        policy = self.policy
        pressure = self.slot_pressure()
        # Publish the sample (a gauge the dashboard can plot and trend
        # rules can watch) and update the trend detector.
        self.cluster.obs.emit("slot_pressure", pressure=pressure)
        self._pressure_trend.update(pressure)
        slope = self.pressure_slope()
        if pressure > policy.slot_pressure_high:
            self._maybe_add_worker(pressure, slope)
        elif slope > policy.pressure_slope_high \
                and pressure > policy.slot_pressure_high / 2.0:
            self._maybe_add_worker(pressure, slope, signal="pressure_trend")
        remote_frac = self._remote_read_fraction()
        if remote_frac is not None \
                and remote_frac > policy.remote_read_fraction_high:
            self._deepen_queue(remote_frac)
        if pressure >= policy.slot_pressure_low:
            self._low_run = 0
            self._busy_seen = True
        elif self._busy_seen:
            self._low_run += 1
        if self._low_run >= policy.low_pressure_windows \
                and slope <= policy.drain_slope_max:
            self._maybe_drain_worker(pressure, slope)

    # -- signal readers ------------------------------------------------------------
    def slot_pressure(self) -> float:
        """Queued+running subtasks per member slot (>1 means waves queue)."""
        cluster = self.cluster
        members = [cluster.workers[n] for n in cluster.member_names()
                   if cluster.worker_is_schedulable(n)]
        if not members:
            return 0.0
        active = sum(w.taskmanager.active_subtasks for w in members)
        capacity = len(members) * cluster.config.slots
        return active / capacity if capacity else 0.0

    def pressure_slope(self) -> float:
        """Slot-pressure trend, in pressure units per tick."""
        return self._pressure_trend.slope()

    def _remote_read_fraction(self) -> Optional[float]:
        """Remote share of HDFS block reads since the previous tick."""
        reads, seen = self.cluster.hdfs.block_reads, self._reads_seen
        local, remote = (reads[k] - seen[k] for k in ("local", "remote"))
        self._reads_seen = dict(reads)
        if local + remote <= 0:
            return None
        return remote / (local + remote)

    # -- actuations ------------------------------------------------------------
    def _maybe_add_worker(self, pressure: float, slope: float = 0.0,
                          signal: str = "sched_bound") -> None:
        cluster = self.cluster
        if len(cluster.member_names()) >= self.policy.max_workers:
            return
        if self.env.now - self._last_scale_at < self.policy.cooldown_s:
            return
        self._last_scale_at = self.env.now
        name = cluster.add_worker()
        self._decide(signal, "add_worker", worker=name,
                     slot_pressure=round(pressure, 3),
                     pressure_slope=round(slope, 4))

    def _maybe_drain_worker(self, pressure: float, slope: float) -> None:
        """Scale-down: drain the most recently joined schedulable worker.

        Draining (not killing): the worker quiesces, migrates its cached
        partitions, then leaves — logical parallelism stays pinned, so
        the job's result is bit-identical; only placement/timing change.
        """
        cluster = self.cluster
        members = [n for n in cluster.member_names()
                   if cluster.worker_is_schedulable(n)]
        if len(members) <= self.policy.min_workers:
            return
        if self.env.now - self._last_scale_at < self.policy.cooldown_s:
            return
        victim = members[-1]
        self._last_scale_at = self.env.now
        self._low_run = 0
        self.drains.append(self.env.process(
            cluster.drain_worker(victim),
            name=f"autoscale-drain-{victim}"))
        self._decide("low_pressure", "drain_worker", worker=victim,
                     slot_pressure=round(pressure, 3),
                     pressure_slope=round(slope, 4),
                     members_left=len(members) - 1)

    def _deepen_queue(self, remote_frac: float) -> None:
        tuning = self.cluster.tuning
        if tuning.pipeline_queue_blocks >= self.policy.max_queue_blocks:
            return
        tuning.pipeline_queue_blocks = min(self.policy.max_queue_blocks,
                                           tuning.pipeline_queue_blocks * 2)
        self._decide("hdfs_bound", "deepen_queue",
                     queue_blocks=tuning.pipeline_queue_blocks,
                     remote_read_fraction=round(remote_frac, 3))

    def _apply_pcie(self, operators: List[str]) -> None:
        tuning = self.cluster.tuning
        changed = False
        if not tuning.prefer_local_placement:
            tuning.prefer_local_placement = True
            changed = True
        wider = min(self.policy.max_block_nbytes,
                    tuning.pipeline_block_nbytes * 2)
        if wider > tuning.pipeline_block_nbytes:
            tuning.pipeline_block_nbytes = wider
            changed = True
        if changed:
            self._decide("pcie_bound", "prefer_cache",
                         operators=operators,
                         block_nbytes=int(tuning.pipeline_block_nbytes))

    # -- bookkeeping ------------------------------------------------------------
    def _decide(self, signal: str, action: str, **detail: Any) -> None:
        decision = ScaleDecision(time=self.env.now, signal=signal,
                                 action=action, detail=detail)
        self.decisions.append(decision)
        self.cluster.obs.emit("autoscale", self.cluster.master_name,
                              "autoscaler", action=action, signal=signal,
                              **detail)
