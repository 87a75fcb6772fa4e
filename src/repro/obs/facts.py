"""FACTS: everything the engine may tell the bus, and what follows from it.

Engine code states a fact once — ``obs.emit(fact, process, thread, t0, t1,
**attrs)`` or ``with obs.span(fact, process, thread, **attrs)`` — and this
table, nothing else, decides what becomes of it: the trace event drawn on
the ``(process, thread)`` lane (category, phase, displayed name) and the
registry metrics and monitor series *derived* from the same attrs.  A
counter therefore cannot disagree with the span it describes, and
``python -m repro.obs.validate --cross`` recomputes every registry
derivation of a drawn fact from the exported trace (see ``validate.py``).

A :class:`Fact` row:

``cat``/``ph``
    trace category and phase (``X`` span, ``i`` instant); ``cat=None`` is a
    fact that is never drawn (job totals, gauge samples).
``name``
    the displayed name, a template over the attrs (``job:{job}``); the
    fact key when omitted.  Names are dynamic, which is why facts are not
    keyed by them.
``hidden``
    attrs that feed the name, a label or a value but are not exported as
    trace args.
``opens``
    threads of the emitting process whose lanes exist from this fact on,
    drawn on or not (tids are handed out in first-use order).
``totals``
    ``(registry family, source)``: the family, summed over its labels,
    equals the source (an attr, or a constant per event) summed over the
    events of every fact that names it.  For families this table cannot
    derive event by event: ``shuffle.bytes`` is fed per job at the job's
    end (its window placement is part of the monitor's output), the
    ``gpu.device.*`` gauges are read off the device model at export time.
``derive``
    :class:`Derive` rows, applied in order.  ``value`` is a constant, an
    attr name, or :data:`DUR`; a label source is an attr name,
    :data:`PROCESS`, ``"=literal"`` or ``(attr, {value: label})``;
    ``unless`` skips the derivation when any named attr is set (an errored
    span carries ``error``); ``skip_zero`` skips a zero value, which would
    otherwise create the metric at 0; ``on_open`` applies when a
    :meth:`~repro.obs.bus.Observability.span` is entered rather than when
    it exits (a stall is counted when it begins, timed when it ends).
    Every derivation lands in the monitor window of its fact's own instant
    ``t1``; a registry derivation also records into the monitor series of
    the same ``(name, labels)`` key, so a fact never derives one key into
    both sinks, or its window would count it twice.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, NamedTuple, Optional, Tuple

__all__ = ["DUR", "Derive", "FACTS", "Fact", "PROCESS", "resolve_labels"]

#: Label source: the emitting lane's process name.
PROCESS = "@process"
#: Value source: the fact's own duration, ``t1 - t0``.
DUR = "@dur"


class Derive(NamedTuple):
    sink: str                       # "registry" | "monitor"
    kind: str                       # counter | gauge | histogram | slo.* ...
    name: str
    value: Any = 1
    labels: Tuple[Tuple[str, str, Optional[dict]], ...] = ()
    unless: Tuple[str, ...] = ()
    skip_zero: bool = False
    on_open: bool = False


class Fact(NamedTuple):
    cat: Optional[str] = None
    ph: str = "i"
    name: Optional[str] = None
    hidden: Tuple[str, ...] = ()
    derive: Tuple[Derive, ...] = ()
    opens: Tuple[str, ...] = ()
    totals: Tuple[Tuple[str, str], ...] = ()


def _derive(sink, kind, name="", value=1, /, unless=(), skip_zero=False,
            on_open=False, **labels) -> Derive:
    # Sorted by label name: resolved items are in canonical metric-key order.
    spec = tuple(sorted(
        (k, *(src if isinstance(src, tuple) else (src, None)))
        for k, src in labels.items()))
    return Derive(sink, kind, name, value, spec, tuple(unless), skip_zero,
                  on_open)


reg = partial(_derive, "registry")
mon = partial(_derive, "monitor")


def resolve_labels(spec, process, attrs) -> Tuple[Tuple[str, str], ...]:
    """The ``(label, str(value))`` items a derivation's label spec yields."""
    items = []
    for label, src, mapping in spec:
        if src == PROCESS:
            value = process
        elif src[0] == "=":
            value = src[1:]
        else:
            value = attrs[src]
            if mapping is not None:
                value = mapping[value]
        items.append((label, str(value)))
    return tuple(items)


_ERR = ("error",)
_LOCALITY = ("local", {True: "local", False: "remote"})

FACTS: Dict[str, Fact] = {
    # -- jobs (flink/jobmanager.py, flink/pipeline.py) --------------------------
    "job": Fact("job", "X", "job:{job}", derive=(
        reg("counter", "jobs.completed", unless=_ERR),
        reg("histogram", "job.makespan_s", DUR, unless=_ERR),
        mon("slo.latency", "job_latency", DUR, unless=_ERR),
        mon("histogram", "job.makespan_s", DUR, unless=_ERR, job="job"))),
    "job.submit": Fact("job", "X"),
    "job.totals": Fact(derive=(
        reg("counter", "job.subtasks", "subtasks", job="job"),
        reg("counter", "shuffle.bytes", "shuffle_bytes", skip_zero=True,
            job="job"),
        reg("counter", "shuffle.zero_copy.bytes", "zero_copy_bytes",
            skip_zero=True, job="job"),
        reg("counter", "shuffle.spill.bytes", "spill_bytes", skip_zero=True,
            job="job"))),
    "exchange": Fact("shuffle", "X", "exchange:{op}", totals=(
        ("shuffle.bytes", "bytes"), ("shuffle.zero_copy.bytes", "zero_copy"))),
    "operator": Fact("operator", "X", "op:{op}"),
    "recover": Fact("recovery", "X", "recover:{op}"),
    "recover.done": Fact(derive=(
        reg("counter", "recovery.recomputed_partitions", "partitions",
            op="op"),)),
    # The gauge is named apart from the counter: the counter is also recorded
    # into the monitor's store as a counter series, the gauge is the live
    # value.
    "pipeline.queue": Fact(derive=(
        reg("counter", "pipeline.queue.max_depth", "max_depth", op="op"),
        reg("counter", "pipeline.backpressure.blocks", "stalls",
            skip_zero=True, op="op"),
        mon("gauge", "pipeline.queue.depth", "max_depth", op="op"))),

    # -- subtasks ---------------------------------------------------------------
    "task.queued": Fact(),          # registers the slot lane before the wait
    "task": Fact("task", "X", "{op}[{subtask}]", ("deploy_s",), derive=(
        mon("histogram", "sched.place_latency_s", "deploy_s", on_open=True,
            op="op"),
        mon("slo.event", "task_availability", True,
            unless=("error", "failed")))),
    "fault.injected": Fact("fault", derive=(
        reg("counter", "faults.injected", op="op"),)),
    "task.retry": Fact("fault", derive=(
        reg("counter", "task.retries", op="op"),
        mon("slo.event", "task_availability", False),
        mon("counter", "task.failures", op="op"))),
    "task.displaced": Fact("fault"),
    "task.cpu_fallback": Fact("fault", derive=(
        reg("counter", "fallback.cpu_tasks", op="op"),)),
    "backpressure": Fact("pipeline", "X", derive=(
        reg("counter", "pipeline.backpressure.stalls", on_open=True, op="op"),
        mon("counter", "pipeline.backpressure.stall_s", DUR, op="op"))),
    "cpu.vectorized": Fact(derive=(
        reg("counter", "cpu.vectorized.blocks", "blocks", op="op"),)),
    "place": Fact("schedule", hidden=("depth",), derive=(
        mon("counter", "sched.placements", reason="reason"),
        mon("gauge", "sched.queue_depth", "depth", worker="worker"))),

    # -- HDFS (hdfs/filesystem.py) ----------------------------------------------
    "hdfs.write": Fact("hdfs", "X", derive=(
        reg("counter", "hdfs.blocks.written", unless=("error", "replica")),)),
    "hdfs.read": Fact("hdfs", "X", derive=(
        reg("counter", "hdfs.reads", unless=_ERR, locality=_LOCALITY),)),
    "hdfs.decommission": Fact("hdfs", "X"),

    # -- GPU pipeline (core/gstream.py, core/gpumanager.py) ---------------------
    "gwork.submit": Fact("gpu.schedule", derive=(
        reg("counter", "gwork.submitted", device=PROCESS),)),
    "gwork": Fact("gpu.pipeline", "X", "gwork:{kernel}", derive=(
        reg("counter", "gwork.completed", unless=_ERR, device=PROCESS),)),
    "gpu.pipeline": Fact(
        opens=("copy:h2d", "copy:d2h", "kernel", "cache", "pipeline"),
        derive=(reg("counter", "gpu.pcie.h2d.bytes", 0, device=PROCESS),
                reg("counter", "gpu.pcie.d2h.bytes", 0, device=PROCESS))),
    "cache.probe": Fact("gpu.cache", derive=(
        reg("counter", "gpu.cache.probe", device=PROCESS,
            outcome="outcome"),)),
    "h2d": Fact("gpu.device", "X", derive=(
        reg("counter", "gpu.pcie.h2d.bytes", "nbytes", device=PROCESS),
        mon("counter", "gpu.pcie.bytes", "nbytes", device=PROCESS)),
        totals=(("gpu.device.h2d_bytes", "nbytes"),)),
    "d2h": Fact("gpu.device", "X", derive=(
        reg("counter", "gpu.pcie.d2h.bytes", "nbytes", device=PROCESS),
        mon("counter", "gpu.pcie.bytes", "nbytes", device=PROCESS)),
        totals=(("gpu.device.d2h_bytes", "nbytes"),)),
    "h2d.starved": Fact("pipeline", "X", derive=(reg(
        "counter", "pipeline.h2d.starved", on_open=True, device=PROCESS),)),
    # ``seconds`` is the launch's own figure; the drawn duration is the same
    # window measured off the clock and differs from it in the last bits.
    "kernel": Fact("gpu.device", "X", "{kernel}", ("kernel", "seconds"),
                   derive=(
        reg("counter", "gpu.kernel.seconds", "seconds", device=PROCESS,
            kernel="kernel"),
        mon("counter", "gstream.engine_busy_s", "seconds", device=PROCESS)),
        totals=(("gpu.device.kernel_seconds", "seconds"),
                ("gpu.device.kernels_launched", 1))),
    "device.blacklisted": Fact("fault", derive=(
        reg("counter", "device.blacklisted", device="device"),)),

    # -- failure domains and membership (flink/runtime.py, flink/chaos.py) ------
    "worker.dead": Fact("fault", derive=(
        reg("counter", "worker.failures", worker="worker"),
        mon("health.down", worker="worker"),
        mon("counter", "worker.down", worker="worker"))),
    "worker.declared_dead": Fact("fault", derive=(
        reg("counter", "worker.declared_dead", worker="worker"),)),
    "heartbeat.missed": Fact(derive=(
        mon("counter", "worker.heartbeat.missed", worker="worker"),)),
    "chaos": Fact("chaos", name="chaos.{kind}", hidden=("kind",), derive=(
        reg("counter", "chaos.events", kind="kind"),)),
    "chaos.skip": Fact("chaos", name="chaos.skip.{kind}", hidden=("kind",),
                       derive=(reg("counter", "chaos.skipped", kind="kind"),)),
    "churn.join": Fact("churn", derive=(
        reg("counter", "churn.joins", worker="worker"),
        mon("counter", "churn.events", event="=join"))),
    "churn.drain.start": Fact("churn", derive=(
        reg("counter", "churn.drains", worker="worker"),
        mon("counter", "churn.events", event="=drain"))),
    "churn.drain.done": Fact("churn"),
    "churn.leave": Fact("churn", derive=(
        reg("counter", "churn.leaves", worker="worker"),
        mon("counter", "churn.events", event="=leave"))),
    "rebalance.migrate": Fact("rebalance", "X", derive=(
        reg("counter", "rebalance.partitions", unless=_ERR, dst="dst"),
        reg("counter", "rebalance.bytes", "nbytes", unless=_ERR,
            dst="dst"))),

    # -- autoscaler (flink/autoscaler.py) -----------------------------------------
    "slot_pressure": Fact(derive=(
        mon("gauge", "scheduler.slot_pressure", "pressure"),)),
    "autoscale": Fact("alert", name="autoscale.{action}", hidden=("action",),
                      derive=(
        reg("counter", "autoscale.decisions", action="action"),)),
}

# A drawn fact with no name template of its own is displayed under its key.
FACTS = {key: row._replace(name=row.name or key) if row.cat else row
         for key, row in FACTS.items()}
