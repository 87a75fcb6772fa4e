"""Execution graph: the physical form of a compiled job.

The JobManager compiles the logical plan (reachable
:class:`~repro.flink.plan.Operator` DAG) into an :class:`ExecutionGraph`:
one :class:`ExecutionJobVertex` per operator, expanded into ``parallelism``
:class:`ExecutionVertex` subtasks with worker assignments filled in by the
scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.flink.plan import Operator, ShipStrategy, topological_order
from repro.hdfs.blocks import Block


@dataclass
class ExecutionVertex:
    """One subtask of one operator."""

    op: Operator
    subtask_index: int
    worker: Optional[str] = None
    assigned_blocks: List[Block] = field(default_factory=list)
    attempts: int = 0


@dataclass
class ExecutionJobVertex:
    """All subtasks of one operator."""

    op: Operator
    parallelism: int
    subtasks: List[ExecutionVertex] = field(default_factory=list)

    def expand(self) -> None:
        """Create the subtask list (idempotent)."""
        if not self.subtasks:
            self.subtasks = [ExecutionVertex(self.op, i)
                             for i in range(self.parallelism)]


class ExecutionGraph:
    """The compiled job: job vertices in dependency order."""

    def __init__(self, sinks: List[Operator], default_parallelism: int):
        self.sinks = sinks
        self.order = topological_order(sinks)
        self.vertices: Dict[int, ExecutionJobVertex] = {}
        for op in self.order:
            parallelism = self._resolve_parallelism(op, default_parallelism)
            jv = ExecutionJobVertex(op, parallelism)
            jv.expand()
            self.vertices[op.uid] = jv

    def _resolve_parallelism(self, op: Operator, default: int) -> int:
        """``op``'s own parallelism, else its (first) FORWARD input's, else
        ``default``.  Partition *i* of a FORWARD input feeds subtask *i*,
        so a FORWARD edge between unequal parallelisms is a ValueError."""
        forward = [self.vertices[inp.uid].parallelism
                   for inp, strat in zip(op.inputs, op.strategies)
                   if strat is ShipStrategy.FORWARD]
        parallelism = (op.parallelism if op.parallelism is not None
                       else forward[0] if forward else default)
        for width in forward:
            if width != parallelism:
                raise ValueError(
                    f"FORWARD needs equal parallelism: {op.name} has "
                    f"{parallelism}, its input {width}")
        return parallelism

    def job_vertex(self, op: Operator) -> ExecutionJobVertex:
        """The job vertex compiled for ``op``."""
        return self.vertices[op.uid]

    def pipeline_regions(self) -> List[List[Operator]]:
        """Operators grouped into streaming pipeline regions.

        See :func:`repro.flink.optimizer.pipeline_regions`; the pipelined
        executor annotates spans with the region index and the docs use it
        to explain where blocks flow versus where they materialize.
        """
        from repro.flink.optimizer import pipeline_regions
        return pipeline_regions(self.order)

    @property
    def total_subtasks(self) -> int:
        """Number of subtasks across the whole graph."""
        return sum(jv.parallelism for jv in self.vertices.values())
