"""One CPU stage loop, held to the three bodies it replaced.

``map`` / ``filter`` / ``flatMap`` / ``mapPartition`` and the optimizer's
``FusedMapOp`` run one loop — charge with the stage's cost and UDF,
transform, wrap with the stage's element size and scale
(``repro.flink.plan._StageChain``); a lone operator is the chain of one.
The retired ``_ElementWise``, ``MapPartitionOp`` and ``FusedMapOp`` bodies
live on verbatim in ``tests/flink/retired.py``; every case runs the same
plan node through both on two identically built clusters and compares the
output partitions, the job's value and metrics, the final clock and the
exported trace.

Axes: chain length 1-4 over the four operator kinds, element and
``vectorized()`` UDFs (the two CPU price lists), selectivity / element size
/ per-element overhead declared or not, a row-list and a block payload, an
empty partition, and a streamed (HDFS) input — where a lone element-wise
operator relays its source's block stream (``functional_output``) and a
chain does not.
"""

from dataclasses import dataclass, field
from typing import Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.flink import (ClusterConfig, CPUSpec, FlinkConfig, FlinkSession,
                         OpCost)
from repro.flink.chaos import values_equal
from repro.flink.dataset import DataSet
from repro.flink.iterators import vectorized
from repro.flink.optimizer import FusedMapOp
from repro.flink.plan import (CollectionSource, FilterOp, FlatMapOp,
                              HdfsSource, MapOp, MapPartitionOp, _StageChain)
from repro.flink.runtime import Cluster
from tests.flink.conftest import depth
from tests.flink.retired import RetiredElementWise, cpu_twin

def _block(udf):
    """A ``vectorized()`` UDF; it is handed the payload whole, row list or
    block (a flatMap upstream leaves rows)."""
    return vectorized(lambda payload: udf(np.asarray(payload)))


#: kind -> (operator class, element UDF, block UDF or None)
KINDS = {
    "map": (MapOp, lambda x: x * 2.0 + 1.0,
            _block(lambda block: block * 2.0 + 1.0)),
    "filter": (FilterOp, lambda x: x % 3.0 != 0.0,
               _block(lambda block: block % 3.0 != 0.0)),
    "flat_map": (FlatMapOp, lambda x: [x, x + 0.5], None),
    "map_partition": (MapPartitionOp, lambda part: part[::2],
                      _block(lambda block: block[::2])),
    # An aggregating partition function: real records, scale 1.
    "partial_sum": (MapPartitionOp, lambda part: [float(sum(part))],
                    _block(lambda block: np.array([block.sum()]))),
}


@dataclass(frozen=True)
class Member:
    kind: str = "map"
    block_udf: bool = False
    selectivity: Optional[float] = None
    out_element_nbytes: Optional[float] = None
    element_overhead_s: Optional[float] = None


@dataclass(frozen=True)
class Case:
    members: Tuple[Member, ...] = (Member(),)
    block_payload: bool = False
    hdfs: bool = False
    n: int = 120                         # 1: one of the partitions empty
    scale: float = 50.0
    label: str = field(default="", compare=False)


def build_op(case: Case):
    """The plan node of ``case``: cluster-independent, so both bodies run
    over this very node."""
    if case.hdfs:
        source = HdfsSource("/in", 8.0, scale=case.scale)
    else:
        data = np.arange(case.n, dtype=np.float64)
        source = CollectionSource(
            data if case.block_payload else data.tolist(), 8.0,
            scale=case.scale, parallelism=2)
    members, prev = [], source
    for j, m in enumerate(case.members):
        cls, element_udf, block_udf = KINDS[m.kind]
        udf = block_udf if m.block_udf and block_udf else element_udf
        prev = cls(prev, udf,
                   OpCost(flops_per_element=3.0 + j,
                          selectivity=m.selectivity,
                          out_element_nbytes=m.out_element_nbytes,
                          element_overhead_s=m.element_overhead_s),
                   name=f"m{j}({m.kind})")
        members.append(prev)
    return members[0] if len(members) == 1 else FusedMapOp(source, members)


def run_case(case: Case, op):
    cluster = Cluster(ClusterConfig(
        n_workers=1, cpu=CPUSpec(cores=2),
        flink=FlinkConfig(enable_tracing=True, enable_chaining=False,
                          pipeline_block_nbytes=2048.0)))
    if case.hdfs:
        data = np.arange(case.n, dtype=np.float64)
        cluster.load_hdfs_file("/in", [
            (half if case.block_payload else half.tolist(),
             int(len(half) * case.scale * 8))
            for half in np.array_split(data, 2)])
    partitions = []
    body = op.execute_subtask

    def recording_subtask(ctx, inputs):
        part = yield from body(ctx, inputs)
        partitions.append(part)
        return part

    with mock.patch.object(op, "execute_subtask", recording_subtask):
        # A streaming consumer downstream: with a streamed input, a lone
        # element-wise operator relays its source's blocks to it.
        result = DataSet(FlinkSession(cluster), op).map_partition(
            lambda part: part, cost=OpCost(flops_per_element=0.0),
            name="tail").collect()
    m = result.metrics
    return {
        "value": result.value,
        "clock": cluster.env.now,
        "metrics": (m.makespan, m.compute_s, m.vectorized_blocks,
                    m.pipeline_max_queue_depth,
                    m.pipeline_backpressure_stalls),
        "partitions": sorted(
            (p.index, repr(np.asarray(p.elements).tolist()),
             type(p.elements).__name__, p.element_nbytes, p.scale, p.worker)
            for p in partitions),
        "trace": cluster.obs.tracer.to_chrome()["traceEvents"],
    }


def assert_same(case: Case):
    op = build_op(case)
    observed = run_case(case, op)
    retired = run_case(case, cpu_twin(op))
    assert len(observed["partitions"]) == 2
    for key, value in observed.items():
        if key == "value":
            assert values_equal(value, retired[key])
        else:
            assert value == retired[key], key


CHAINS = {
    1: ("map",),
    2: ("map", "filter"),
    3: ("flat_map", "map", "map_partition"),
    4: ("map", "filter", "flat_map", "partial_sum"),
}


def chain(length, **every_member):
    return tuple(Member(kind=k, **every_member) for k in CHAINS[length])


def swept_cases():
    cases = [Case((Member(kind),), label=kind) for kind in KINDS]
    cases += [Case((Member(kind, block_udf=True),), block_payload=True,
                   label=f"{kind}-block") for kind in KINDS]
    cases += [Case((Member(kind),), hdfs=True, label=f"{kind}-streamed")
              for kind in KINDS]
    for length in CHAINS:
        cases += [
            Case(chain(length), label="rows"),
            Case(chain(length), block_payload=True, label="block-payload"),
            Case(chain(length, block_udf=True), block_payload=True,
                 label="block-udfs"),
            Case(chain(length, selectivity=0.5), label="selectivity"),
            Case(chain(length, out_element_nbytes=16.0), label="sizes"),
            Case(chain(length, element_overhead_s=2e-6), label="overhead"),
            Case(chain(length), n=1, label="empty-partition"),
            Case(chain(length), hdfs=True, label="streamed"),
            Case(chain(length, block_udf=True), hdfs=True,
                 block_payload=True, label="streamed-blocks"),
        ]
    return cases


@pytest.mark.parametrize(
    "case", swept_cases(), ids=lambda c: f"{len(c.members)}-{c.label}")
def test_swept_case_matches_the_retired_bodies(case):
    assert_same(case)


def test_the_streamed_cases_reach_the_relay_shell_on_both_sides():
    """``functional_output`` — the stage loop's turn without the charge —
    is evaluated early by the executor for a lone element-wise operator on
    a streamed input: twice per side here (two subtasks), beside the two
    turns the subtasks take themselves."""
    case = Case((Member("map"),), hdfs=True)
    for op, cls in ((build_op(case), _StageChain),
                    (cpu_twin(build_op(case)), RetiredElementWise)):
        shell, turns = cls.functional_output, []

        def recording(stage, *args):
            turns.append(stage)
            return shell(stage, *args)

        with mock.patch.object(cls, "functional_output", recording):
            run_case(case, op)
        assert sum(stage is op for stage in turns) == 4


members = st.builds(
    Member,
    kind=st.sampled_from(sorted(KINDS)),
    block_udf=st.booleans(),
    selectivity=st.sampled_from([None, 0.5, 2.0]),
    out_element_nbytes=st.sampled_from([None, 4.0, 16.0]),
    element_overhead_s=st.sampled_from([None, 2e-6]))


@depth(tier1=25, full=1500)
@given(st.builds(
    Case,
    members=st.lists(members, min_size=1, max_size=4).map(tuple),
    block_payload=st.booleans(), hdfs=st.booleans(),
    n=st.sampled_from([1, 120]), scale=st.sampled_from([1.0, 50.0])))
def test_generated_case_matches_the_retired_bodies(case):
    assert_same(case)
