"""Plan optimizer: operator chaining.

Flink fuses consecutive element-wise operators into one task ("operator
chaining"), so a ``map → mapPartition`` pipeline deploys once per slot
and passes records function-to-function instead of materializing between
operators.  This optimizer performs the same rewrite on the logical plan:

* chainable operators: ``MapOp``, ``MapPartitionOp`` — single FORWARD
  input, default parallelism;
* a chain is broken by: a persisted operator (its materialization is
  user-visible), an operator consumed by more than one downstream, an
  explicit parallelism, or a non-chainable operator (shuffles, GPU ops,
  sinks);
* each maximal chain becomes one :class:`FusedMapOp` whose subtask charges
  every stage's iterator cost but pays scheduling/deploy overhead once.

Controlled by :attr:`repro.flink.config.FlinkConfig.enable_chaining`
(default on, as in Flink); ``benchmarks/bench_ablation_chaining.py``
measures the win.

**GPU operator chaining** is the same rewrite one level down: maximal runs
of consecutive :class:`~repro.core.gdst.GpuMapPartitionOp` (single FORWARD
input, single consumer, same app/communication mode/layout) fuse into one
:class:`~repro.core.gdst.FusedGpuOp`, whose single GWork keeps the
intermediates device-resident — each fused boundary saves a full D2H + H2D
round-trip over PCIe.  Controlled by
:attr:`repro.flink.config.FlinkConfig.enable_gpu_chaining`;
``benchmarks/bench_ablation_gpu_chaining.py`` measures the win.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from repro.flink.plan import (
    MapOp,
    MapPartitionOp,
    OpCost,
    Operator,
    _StageChain,
    topological_order,
)

CHAINABLE = (MapOp, MapPartitionOp)


class FusedMapOp(_StageChain):
    """Two or more element-wise operators executing as one task: every
    stage's iterator cost is charged, scheduling/deploy overhead once."""

    def __init__(self, source: Operator, stages: List[Operator]):
        super().__init__(
            source, None, OpCost(),
            name="chain(" + "->".join(s.name for s in stages) + ")")
        self.stages = stages


def pipeline_regions(order: List[Operator]) -> List[List[Operator]]:
    """Group a topological operator order into pipeline regions.

    A pipeline region is a maximal set of operators connected by streaming
    edges (forward — :attr:`ShipStrategy.is_streaming`): within one
    region the pipelined executor can flow individual blocks end to end.
    Barrier edges (hash, gather, rebalance) cut regions: they
    need every producer partition before any consumer record is routable —
    the hash-shuffle build sides and iteration-superstep boundaries.

    An operator with *any* barrier input belongs to a fresh region (it
    cannot start before all its inputs finish, even on its streaming
    edges).
    """
    regions: List[List[Operator]] = []
    region_of: Dict[int, int] = {}
    for op in order:
        upstream = set()
        if op.inputs and all(s.is_streaming for s in op.strategies):
            upstream = {region_of[inp.uid] for inp in op.inputs
                        if inp.uid in region_of}
        if not upstream:
            region_of[op.uid] = len(regions)
            regions.append([op])
            continue
        keep = min(upstream)
        for other in upstream - {keep}:
            regions[keep].extend(regions[other])
            regions[other] = []
            for uid, r in region_of.items():
                if r == other:
                    region_of[uid] = keep
        regions[keep].append(op)
        region_of[op.uid] = keep
    return [r for r in regions if r]


def _chainable(op: Operator, consumers: Counter) -> bool:
    """Chain members: element-wise, default parallelism, privately
    consumed, not persisted (persisted datasets keep their identity for
    cross-job reuse)."""
    return (isinstance(op, CHAINABLE)
            and op.parallelism is None
            and consumers[op.uid] == 1
            and not op.persisted)


def _consumer_maps(order: List[Operator]
                   ) -> Tuple[Counter, Dict[int, List[Operator]]]:
    consumers: Counter = Counter()
    consumer_ops: Dict[int, List[Operator]] = {}
    for op in order:
        for parent in op.inputs:
            consumers[parent.uid] += 1
            consumer_ops.setdefault(parent.uid, []).append(op)
    return consumers, consumer_ops


def _gpu_chainable(op: Operator, consumers: Counter) -> bool:
    """GPU chain members: a plain GpuMapPartitionOp with default
    parallelism, privately consumed, not persisted."""
    from repro.core.gdst import GpuMapPartitionOp
    return (type(op) is GpuMapPartitionOp
            and op.parallelism is None
            and consumers[op.uid] == 1
            and not op.persisted)


def _gpu_compatible(producer: Operator, consumer: Operator) -> bool:
    """Both ops must target the same cache regions, transfer path and
    device data layout to share one GWork."""
    return (producer.app_id == consumer.app_id
            and producer.comm_mode is consumer.comm_mode
            and producer.layout is consumer.layout)


def _fuse_gpu_chains(order: List[Operator], consumers: Counter,
                     consumer_ops: Dict[int, List[Operator]]) -> None:
    """Fuse maximal compatible runs of GPU operators into FusedGpuOps.

    Walks runs head-first (a head is a chainable op whose producer is not
    chainable *into it*), so a compatibility break mid-run still leaves
    both sub-runs fusable on their own.
    """
    from repro.core.gdst import FusedGpuOp
    fused_uids: set = set()
    for op in order:
        if op.uid in fused_uids or not _gpu_chainable(op, consumers):
            continue
        prev = op.inputs[0]
        if _gpu_chainable(prev, consumers) and _gpu_compatible(prev, op):
            continue  # not a head: the head's walk collects this op
        run: List[Operator] = [op]
        while True:
            (consumer,) = consumer_ops.get(run[-1].uid, [None])
            if (consumer is not None
                    and _gpu_chainable(consumer, consumers)
                    and _gpu_compatible(run[-1], consumer)):
                run.append(consumer)
            else:
                break
        if len(run) < 2:
            continue
        fused_uids.update(o.uid for o in run)
        fused = FusedGpuOp(run[0].inputs[0], run)
        for consumer in consumer_ops.get(run[-1].uid, []):
            consumer.inputs = [fused if parent is run[-1] else parent
                               for parent in consumer.inputs]


def apply_chaining(sinks: List[Operator], cpu: bool = True,
                   gpu: bool = True) -> List[Operator]:
    """Rewrite the plan reachable from ``sinks``, fusing maximal chains.

    ``cpu`` fuses element-wise CPU chains into :class:`FusedMapOp`;
    ``gpu`` fuses consecutive GPU operators into
    :class:`~repro.core.gdst.FusedGpuOp`.  Rewrites consumer ``inputs``
    edges in place; the fused operators are stable objects, so a driver
    that reuses the same plan across jobs keeps stable fused uids.
    Returns ``sinks``.
    """
    if cpu:
        order = topological_order(sinks)
        consumers, _ = _consumer_maps(order)

        # For each consumer edge, absorb the maximal chain of chainable
        # producers ending at that edge.  Edges whose consumer is itself a
        # chain member are skipped: that consumer's own consumer absorbs
        # the whole chain in one piece.
        for op in order:
            if _chainable(op, consumers):
                continue
            for k, parent in enumerate(list(op.inputs)):
                chain: List[Operator] = []
                cursor = parent
                while _chainable(cursor, consumers):
                    chain.insert(0, cursor)
                    cursor = cursor.inputs[0]
                if len(chain) >= 2:
                    op.inputs[k] = FusedMapOp(chain[0].inputs[0], chain)
    if gpu:
        # Recompute after the CPU pass: it may have rewired the consumers
        # of a GPU run's tail.
        order = topological_order(sinks)
        consumers, consumer_ops = _consumer_maps(order)
        _fuse_gpu_chains(order, consumers, consumer_ops)
    return sinks
