"""One GPU subtask body, held to the reference.

``repro.core.gdst`` has a single ``execute_subtask`` / ``_build_gwork`` /
``_output_scale`` / ``out_element_nbytes`` for every GPU map-partition
operator — a single kernel is the chain of one.  Every case runs its plan
node twice on a fresh cluster (the second submission meets what the first
left in the cache region) and holds each subtask's output to the
reference (:func:`tests.reference.interp.kernels`): the chain's kernel
bodies over the subtask's input partition.  A reduce-style tail emits one
partial per device block, so there the partials' sum is compared.  (The
test names are kept from when the retired single-kernel and chain bodies
were the oracle.)

Axes: chain length 1-4 (count-keeping, count-changing and reduce-style
members, all under the one output-scale rule), cache on/off with and
without an explicit ``cache_key_base``, secondary operands (fresh and
constant, the same name on several members), declared and undeclared
output sizes, the three transfer paths, both device
layouts, a streamed (HDFS) and a resident (collection) input,
an empty partition, a second submission (cache hits, resumed chains) and
CPU degradation.  Tier-1 runs the sweep and a few generated cases;
``scripts/ci.sh`` runs the generator at full depth (``REPRO_FULL_DEPTH=1``).
"""

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from repro.core import GFlinkCluster, GFlinkSession
from repro.core.channels import CommMode
from repro.core.gdst import (GDST, ExtraInput, FusedGpuOp,
                             GpuMapPartitionOp)
from repro.core.gpumanager import GPUManagerConfig
from repro.core.gstruct import DataLayout
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.flink.chaos import ChaosSchedule, values_equal
from repro.flink.plan import CollectionSource, HdfsSource
from repro.gpu import KernelSpec
from tests.flink.conftest import depth
from tests.reference.interp import Bag, kernels

APP = "differential"


def _operand(inputs):
    return inputs["w"][0] if "w" in inputs else 0.0


#: Every kernel takes the optional secondary operand ``w`` and the optional
#: parameter ``a``, so any member may carry either.
KERNELS = {
    "double": lambda i, p: {
        "out": i["in"] * 2.0 + _operand(i) + p.get("a", 0.0)},
    "inc": lambda i, p: {
        "out": i["in"] + 1.0 + _operand(i) * p.get("a", 1.0)},
    # count-changing: fewer out than in.
    "keep_even": lambda i, p: {"out": (i["in"] + _operand(i))[::2]},
    # reduce-style: one partial per block.
    "block_sum": lambda i, p: {
        "out": np.array([i["in"].sum() + _operand(i) + p.get("a", 0.0)])},
}


@dataclass(frozen=True)
class Member:
    kernel: str = "double"
    cache: bool = False
    cache_key_base: Optional[tuple] = None
    operand: Optional[str] = None        # None | "fresh" | "constant"
    out_element_nbytes: Optional[float] = None


@dataclass(frozen=True)
class Case:
    members: Tuple[Member, ...] = (Member(),)
    comm_mode: CommMode = CommMode.GFLINK
    layout: DataLayout = DataLayout.AOS
    degraded: bool = False
    hdfs: bool = False                   # streamed input: host_stream wired
    n: int = 240                         # 1: one of the two partitions empty
    scale: float = 4.0
    label: str = field(default="", compare=False)


def build_op(case: Case):
    """The plan node of ``case`` (members feed each other as
    ``ds.gpu_map(..).gpu_map(..)`` would make them), cluster-independent:
    both bodies run over this very node — same uids, so same cache keys."""
    if case.hdfs:
        source = HdfsSource("/in", 8.0, scale=case.scale)
    else:
        source = CollectionSource(np.arange(case.n, dtype=np.float64), 8.0,
                                  scale=case.scale, parallelism=2)
    members, prev = [], source
    for j, m in enumerate(case.members):
        operand = {
            None: {},
            "fresh": {"w": ExtraInput(lambda: np.array([3.0]), 8.0)},
            "constant": {"w": ExtraInput.constant(np.array([5.0 + j]), 8.0)},
        }[m.operand]
        prev = GpuMapPartitionOp(
            prev, m.kernel, APP, extra_inputs=operand, params={"a": 1.0},
            cache=m.cache, cache_key_base=m.cache_key_base,
            out_element_nbytes=m.out_element_nbytes,
            comm_mode=case.comm_mode, layout=case.layout,
            name=f"m{j}({m.kernel})")
        members.append(prev)
    return members[0] if len(members) == 1 else FusedGpuOp(source, members)


def run_case(case: Case, op):
    """Two jobs over the plan node ``op`` on a fresh cluster: every
    subtask's input and output partition, the cluster's probes of the
    cache, and the kernel registry."""
    cluster = GFlinkCluster(
        ClusterConfig(n_workers=1, cpu=CPUSpec(cores=2),
                      gpus_per_worker=("c2050",),
                      flink=FlinkConfig(enable_tracing=True,
                                        enable_chaining=False,
                                        enable_gpu_chaining=False,
                                        pipeline_block_nbytes=256.0)),
        gpu_config=GPUManagerConfig(block_nbytes=512))
    session = GFlinkSession(cluster, app_id=APP)
    for name, fn in KERNELS.items():
        session.register_kernel(KernelSpec(name, fn, flops_per_element=2.0,
                                           efficiency=0.5))
    if case.degraded:
        cluster.install_chaos(ChaosSchedule().fail_gpu("worker0", 0, at=0.0))
    if case.hdfs:
        cluster.load_hdfs_file("/in", [
            (half, int(len(half) * case.scale * 8)) for half in
            np.array_split(np.arange(case.n, dtype=np.float64), 2)])
    subtasks = []
    body = op.execute_subtask

    def recording_subtask(ctx, inputs):
        part = yield from body(ctx, inputs)
        subtasks.append((inputs[0], part))
        return part

    with mock.patch.object(op, "execute_subtask", recording_subtask):
        for _ in range(2):
            GDST(session, op).collect()
    probes = {e["args"]["outcome"]
              for e in cluster.obs.tracer.to_chrome()["traceEvents"]
              if e["name"] == "cache.probe"}
    return subtasks, probes, cluster.registry


def partial_of_nothing(op, registry):
    """What the reduce-style tail adds to every partial it emits (its
    operand and parameter): its kernel over an empty block."""
    tail = op.stages[-1]
    params = dict(tail.params)
    inputs = {name: extra.supplier()
              for name, extra in tail.extra_inputs.items()}
    inputs["in"] = np.zeros(0)
    return registry.get(tail.kernel_name).fn(inputs, params)["out"][0]


def assert_same(case: Case):
    op = build_op(case)
    subtasks, _, registry = run_case(case, op)
    assert len(subtasks) == 4
    for part_in, part_out in subtasks:
        rows = list(part_in.elements)
        want = kernels(op, Bag(rows, [part_in.scale] * len(rows)), registry)
        got = list(part_out.elements)
        if op.stages[-1].kernel_name == "block_sum" and rows:
            # One partial per device block: their sum, less what each adds.
            c = partial_of_nothing(op, registry)
            assert sum(got) - len(got) * c == want.rows[0] - c
        else:
            assert values_equal(got, want.rows)


# -- the sweep: every axis around a base case, chain lengths 1-4 --------------------

CHAINS = {
    1: ("double",),
    2: ("double", "inc"),
    3: ("double", "keep_even", "inc"),
    4: ("inc", "keep_even", "double", "block_sum"),
}


def chain(length, **every_member):
    return tuple(Member(kernel=k, **every_member) for k in CHAINS[length])


def swept_cases():
    cases = []
    for length in CHAINS:
        base = chain(length)
        tail = base[-1]
        cases += [
            Case(base, label="all"),
            Case(chain(length, cache=True), label="cache"),
            Case(chain(length, cache=True, cache_key_base=("base", length)),
                 label="cache-key-base"),
            Case((replace(base[0], cache=True),) + base[1:],
                 label="cache-head-only"),
            Case(base[:-1] + (replace(tail, cache=True),),
                 label="cache-tail-only"),
            Case(chain(length, operand="fresh"), label="operands-collide"),
            Case(chain(length, operand="constant", cache=True),
                 label="cached-operands-collide"),
            Case(chain(length, out_element_nbytes=16.0), label="sizes"),
            Case((replace(base[0], out_element_nbytes=4.0),) + base[1:],
                 label="size-head-only"),
            Case(base, comm_mode=CommMode.JNI_HEAP, label="jni-heap"),
            Case(base, comm_mode=CommMode.RPC, label="rpc"),
            Case(base, layout=DataLayout.SOA, label="soa"),
            Case(base, n=1, label="empty-partition"),
            Case(base, n=7, scale=1.0, label="one-block"),
            Case(chain(length, cache=True, operand="constant"), hdfs=True,
                 label="streamed-input"),
            Case(chain(length, operand="fresh"), degraded=True,
                 label="cpu-degraded"),
        ]
    return cases


# Each member is tagged "auto", the name the one output-scale rule had when
# a member could also pick "map" or "reduce": the case ids stay put.
@pytest.mark.parametrize(
    "case", swept_cases(),
    ids=lambda c: f"{len(c.members)}-{c.label}-"
                  f"{'+'.join('auto' for _ in c.members)}")
def test_swept_case_matches_the_retired_bodies(case):
    assert_same(case)


def test_the_sweep_reaches_both_retired_bodies_and_the_cache():
    """The sweep is not vacuous: chains of one and longer, and the second
    submission of a caching chain resumes mid-way."""
    lengths = {len(build_op(c).stages) for c in swept_cases()}
    assert lengths == {1, 2, 3, 4}
    caching = Case(chain(3, cache=True))
    _subtasks, probes, _ = run_case(caching, build_op(caching))
    assert {"miss", "stage-hit"} <= probes


# -- generated cases ---------------------------------------------------------------

members = st.builds(
    Member,
    kernel=st.sampled_from(sorted(KERNELS)),
    cache=st.booleans(),
    cache_key_base=st.sampled_from([None, ("base", 0), ("base", 1)]),
    operand=st.sampled_from([None, "fresh", "constant"]),
    out_element_nbytes=st.sampled_from([None, 4.0, 16.0]))


@st.composite
def generated_cases(draw):
    return Case(
        members=tuple(draw(st.lists(members, min_size=1, max_size=4))),
        comm_mode=draw(st.sampled_from(list(CommMode))),
        layout=draw(st.sampled_from([DataLayout.AOS, DataLayout.SOA])),
        degraded=draw(st.booleans()) and draw(st.booleans()),
        hdfs=draw(st.booleans()),
        n=draw(st.sampled_from([1, 7, 240])),
        scale=draw(st.sampled_from([1.0, 4.0])))


@depth(tier1=20, full=2000)
@given(generated_cases())
def test_generated_case_matches_the_retired_bodies(case):
    # Past a reduce-style member the values depend on the device blocks.
    assume(all(m.kernel != "block_sum" for m in case.members[:-1]))
    assert_same(case)
