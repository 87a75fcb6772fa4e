"""One CPU stage loop, held to the reference.

``map`` / ``mapPartition`` and the optimizer's
``FusedMapOp`` run one loop — charge with the stage's cost and UDF,
transform, wrap with the stage's element size and scale
(``repro.flink.plan._StageChain``); a lone operator is the chain of one.
Every case runs its plan node on a fresh cluster and holds each subtask's
output to the reference (:func:`tests.reference.interp.stage`, member by
member over the subtask's input partition): the same rows in the same
order, and the nominal count the members' weights give.  (The test names
are kept from when the three retired bodies were the oracle.)

Axes: chain length 1-4 over the operator kinds (a map, a partition
function that drops rows and one that aggregates them), element and
``vectorized()`` UDFs (the two CPU price lists), element size /
per-element overhead declared or not, a row-list and a block payload, an
empty partition, and a streamed (HDFS) input — where a lone map relays its
source's block stream (``functional_output``) and a chain does not.
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
from repro.flink.plan import (CollectionSource, HdfsSource, MapOp,
                              MapPartitionOp, _StageChain)
from repro.flink.runtime import Cluster
from tests.flink.conftest import depth
from tests.reference.interp import Bag, stage

def _block(udf):
    """A ``vectorized()`` UDF; it is handed the payload whole, row list or
    block (a partition function upstream may leave rows)."""
    return vectorized(lambda payload: udf(np.asarray(payload)))


#: kind -> (operator class, element UDF, block UDF)
KINDS = {
    "map": (MapOp, lambda x: x * 2.0 + 1.0,
            _block(lambda block: block * 2.0 + 1.0)),
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
        udf = block_udf if m.block_udf else element_udf
        prev = cls(prev, udf,
                   OpCost(flops_per_element=3.0 + j,
                          out_element_nbytes=m.out_element_nbytes,
                          element_overhead_s=m.element_overhead_s),
                   name=f"m{j}({m.kind})")
        members.append(prev)
    return members[0] if len(members) == 1 else FusedMapOp(source, members)


def run_case(case: Case, op):
    """One job over ``op``: every subtask's input and output partition."""
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
    subtasks = []
    body = op.execute_subtask

    def recording_subtask(ctx, inputs):
        part = yield from body(ctx, inputs)
        subtasks.append((inputs[0], part))
        return part

    with mock.patch.object(op, "execute_subtask", recording_subtask):
        # A streaming consumer downstream: with a streamed input, a lone
        # element-wise operator relays its source's blocks to it.
        DataSet(FlinkSession(cluster), op).map_partition(
            lambda part: part, cost=OpCost(flops_per_element=0.0),
            name="tail").collect()
    return subtasks


def assert_same(case: Case):
    op = build_op(case)
    subtasks = run_case(case, op)
    assert len(subtasks) == 2
    for part_in, part_out in subtasks:
        rows = list(part_in.elements)
        want = Bag(rows, [part_in.scale] * len(rows))
        for member in op.stages:
            want = stage(member, want)
        assert values_equal(list(part_out.elements), want.rows)
        assert part_out.nominal_count == sum(want.weights)


CHAINS = {
    1: ("map",),
    2: ("map", "map_partition"),
    3: ("map_partition", "map", "map"),
    4: ("map", "map_partition", "map", "partial_sum"),
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
    a streamed input: twice here (two subtasks), beside the two turns the
    subtasks take themselves."""
    case = Case((Member("map"),), hdfs=True)
    op = build_op(case)
    shell, turns = _StageChain.functional_output, []

    def recording(stage_, *args):
        turns.append(stage_)
        return shell(stage_, *args)

    with mock.patch.object(_StageChain, "functional_output", recording):
        run_case(case, op)
    assert sum(stage_ is op for stage_ in turns) == 4


members = st.builds(
    Member,
    kind=st.sampled_from(sorted(KINDS)),
    block_udf=st.booleans(),
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
