"""One GPU subtask body, held to the two it replaced.

``repro.core.gdst`` has a single ``execute_subtask`` / ``_build_gwork`` /
``_output_scale`` / ``out_element_nbytes`` for every GPU map-partition
operator — a single kernel is the chain of one.  The retired single-kernel
and chain bodies live on verbatim in ``tests/core/retired.py``; every case
here runs the same plan node twice, once through each, on two identically
built clusters, and compares

* every GWork submitted, field by field (``as_read``),
* every output partition (index, payload, element size, scale, home),
* the job's value, its metrics, the device counters, the final clock and
  the exported trace (``cache.probe`` operands, ``gwork:*`` names, every
  copy and kernel window).

Axes: chain length 1-4, the four ``scale_semantics`` on every member, cache
on/off with and without an explicit ``cache_key_base``, secondary operands
(fresh and constant, the same name on several members), ``params_fn``,
declared and undeclared output sizes, the three transfer paths, both device
layouts, mapped memory, a streamed (HDFS) and a resident (collection) input,
an empty partition, a second submission (cache hits, resumed chains) and
CPU degradation.  Tier-1 runs the sweep and a few generated cases;
``scripts/ci.sh`` runs the generator at full depth (``REPRO_FULL_DEPTH=1``).
"""

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import GFlinkCluster, GFlinkSession
from repro.core.channels import CommMode
from repro.core.gdst import (GDST, ExtraInput, FusedGpuOp,
                             GpuMapPartitionOp)
from repro.core.gpumanager import GPUManager, GPUManagerConfig
from repro.core.gstream import GStream
from repro.core.gstruct import DataLayout
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.flink.chaos import ChaosSchedule, values_equal
from repro.flink.plan import CollectionSource, HdfsSource
from repro.gpu import KernelSpec
from tests.core.retired import retired_twin
from tests.flink.conftest import depth

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
    # flatmap-style: fewer out than in.
    "keep_even": lambda i, p: {"out": (i["in"] + _operand(i))[::2]},
    # reduce-style: one partial per block.
    "block_sum": lambda i, p: {
        "out": np.array([i["in"].sum() + _operand(i) + p.get("a", 0.0)])},
}


@dataclass(frozen=True)
class Member:
    kernel: str = "double"
    scale_semantics: str = "auto"
    cache: bool = False
    cache_key_base: Optional[tuple] = None
    operand: Optional[str] = None        # None | "fresh" | "constant"
    params_fn: bool = False
    out_element_nbytes: Optional[float] = None
    cuda_block_size: int = 256


@dataclass(frozen=True)
class Case:
    members: Tuple[Member, ...] = (Member(),)
    comm_mode: CommMode = CommMode.GFLINK
    layout: DataLayout = DataLayout.AOS
    mapped: bool = False                 # chain of one, GFLINK path only
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
            params_fn=(lambda: {"a": 0.25}) if m.params_fn else None,
            cache=m.cache, cache_key_base=m.cache_key_base,
            out_element_nbytes=m.out_element_nbytes,
            comm_mode=case.comm_mode, cuda_block_size=m.cuda_block_size,
            layout=case.layout, scale_semantics=m.scale_semantics,
            mapped_memory=case.mapped, name=f"m{j}({m.kernel})")
        members.append(prev)
    return members[0] if len(members) == 1 else FusedGpuOp(source, members)


def run_case(case: Case, op):
    """Two jobs over the plan node ``op`` on a fresh cluster; everything an
    observer could tell the two bodies apart by."""
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

    works, partitions = [], []
    submit = GPUManager.submit
    body = op.execute_subtask

    def recording_submit(gpumanager, work):
        works.append(work)
        return submit(gpumanager, work)

    def recording_subtask(ctx, inputs):
        part = yield from body(ctx, inputs)
        partitions.append(part)
        return part

    with mock.patch.object(GPUManager, "submit", recording_submit), \
            mock.patch.object(op, "execute_subtask", recording_subtask):
        # The second job meets what the first left in the cache region.
        results = [GDST(session, op).collect() for _ in range(2)]
    device = cluster.workers["worker0"].gpumanager.devices[0]
    observed = {
        "values": [r.value for r in results],
        "clock": cluster.env.now,
        "metrics": [(m.makespan, m.compute_s, m.gpu_kernel_s, m.pcie_bytes,
                     m.gpu_stage_seconds, m.fallback_tasks, m.retries)
                    for m in (r.metrics for r in results)],
        "device": (device.h2d_bytes, device.d2h_bytes,
                   device.kernels_launched, device.kernel_seconds),
        "partitions": sorted(
            (p.index, payload(p.elements), p.element_nbytes, p.scale,
             p.worker) for p in partitions),
        "trace": trace_events(cluster),
    }
    return works, observed


def payload(elements):
    array = np.asarray(elements)
    return str(array.dtype), array.shape, array.tolist()


def trace_events(cluster):
    """The exported trace; GWork ids (a process-wide counter) by rank."""
    events = cluster.obs.tracer.to_chrome()["traceEvents"]
    rank = {}
    for event in events:
        args = event.get("args") or {}
        if "work" in args:
            args["work"] = rank.setdefault(args["work"], len(rank))
    return events


#: Set by the stream while a work runs; everything else is compared.
RUNTIME_STATE = ("work_id", "completion", "assigned_device", "stage_seconds")


def buffer_fields(hbuf):
    fields = dict(vars(hbuf))
    fields["elements"] = payload(fields["elements"])
    return fields


def as_read(work, lone: bool):
    """Every field of a GWork — literally for a chain of one (the
    Algorithm 3.1 fields must not move: cache keys and ``cache.probe``
    operands are built from them), and for a longer chain as the stream
    reads it, which is where the one body is allowed to differ from the
    retired chain body: a cache key and ``primary_cached`` count only under
    ``cache``, kernel parameters only through ``stages``, and an output size
    of None means the out buffer's."""
    default = GStream._out_nbytes_per_element(work, work.in_buffers["in"])
    fields = {f.name: getattr(work, f.name)
              for f in dataclasses.fields(work)
              if f.name not in RUNTIME_STATE}
    fields["in_buffers"] = {name: buffer_fields(hbuf)
                            for name, hbuf in work.in_buffers.items()}
    fields["out_buffer"] = buffer_fields(work.out_buffer)
    fields["host_stream"] = work.host_stream is not None
    # The stage list is new (normalised at construction): a stage's own
    # None falls back to the work's default in the stream.
    fields["stages"] = [
        replace(stage, out_element_nbytes=default)
        if stage.out_element_nbytes is None else stage
        for stage in work.stages]
    if not lone:
        fields["params"] = None
        fields["out_element_nbytes"] = default
        if not work.cache:
            fields["cache_key"] = fields["primary_cached"] = None
    return fields


def assert_same(case: Case):
    op = build_op(case)
    works, observed = run_case(case, op)
    retired_works, retired_observed = run_case(case, retired_twin(op))
    lone = len(case.members) == 1
    assert len(works) == len(retired_works)
    if not case.degraded and case.n > 1:
        assert works
    for work, retired_work in zip(works, retired_works):
        assert as_read(work, lone) == as_read(retired_work, lone)
    for key, value in observed.items():
        if key == "values":
            assert all(values_equal(a, b) for a, b in
                       zip(value, retired_observed[key])), key
        else:
            assert value == retired_observed[key], key


# -- the sweep: every axis around a base case, chain lengths 1-4 --------------------

SEMANTICS = ("auto", "map", "flatmap", "reduce")
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
        for semantics in SEMANTICS:
            cases.append(Case(base[:-1] + (replace(
                tail, scale_semantics=semantics),), label="tail"))
            cases.append(Case(tuple(replace(
                m, scale_semantics=semantics) for m in base), label="all"))
        if length > 1:
            # An ``auto`` tail downstream of a flatmap-style member.
            cases.append(Case(tuple(replace(
                m, scale_semantics="flatmap") for m in base[:-1]) + (tail,),
                label="flatmap-upstream"))
        cases += [
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
            Case(chain(length, params_fn=True), label="params-fn"),
            Case(chain(length, out_element_nbytes=16.0), label="sizes"),
            Case((replace(base[0], out_element_nbytes=4.0),) + base[1:],
                 label="size-head-only"),
            Case(chain(length, cuda_block_size=128), label="block-size"),
            Case(base, comm_mode=CommMode.JNI_HEAP, label="jni-heap"),
            Case(base, comm_mode=CommMode.RPC, label="rpc"),
            Case(base, layout=DataLayout.SOA, label="soa"),
            Case(base, n=1, label="empty-partition"),
            Case(base, n=7, scale=1.0, label="one-block"),
            Case(chain(length, cache=True, operand="constant"), hdfs=True,
                 label="streamed-input"),
            Case(chain(length, operand="fresh", params_fn=True),
                 degraded=True, label="cpu-degraded"),
        ]
    cases.append(Case((Member("keep_even", "flatmap"), Member("inc")),
                      label="filter-upstream"))
    cases.append(Case(chain(1), mapped=True, label="mapped"))
    cases.append(Case(chain(1, operand="fresh", params_fn=True,
                            out_element_nbytes=16.0),
                      mapped=True, label="mapped-operand"))
    return cases


@pytest.mark.parametrize(
    "case", swept_cases(),
    ids=lambda c: f"{len(c.members)}-{c.label}-"
                  f"{'+'.join(m.scale_semantics for m in c.members)}")
def test_swept_case_matches_the_retired_bodies(case):
    assert_same(case)


def test_the_sweep_reaches_both_retired_bodies_and_the_cache():
    """The oracle is not vacuous: chains of one go through the retired
    single-kernel body, longer ones through the retired chain body, and the
    second submission of a caching chain resumes mid-way."""
    from tests.core import retired
    assert type(retired_twin(build_op(Case(chain(1))))) \
        is retired.RetiredGpuMapPartitionOp
    caching = Case(chain(3, cache=True))
    twin = retired_twin(build_op(caching))
    assert type(twin) is retired.RetiredFusedGpuOp
    _works, observed = run_case(caching, twin)
    outcomes = {e["args"]["outcome"] for e in observed["trace"]
                if e["name"] == "cache.probe"}
    assert {"miss", "stage-hit"} <= outcomes


# -- generated cases ---------------------------------------------------------------

members = st.builds(
    Member,
    kernel=st.sampled_from(sorted(KERNELS)),
    scale_semantics=st.sampled_from(SEMANTICS),
    cache=st.booleans(),
    cache_key_base=st.sampled_from([None, ("base", 0), ("base", 1)]),
    operand=st.sampled_from([None, "fresh", "constant"]),
    params_fn=st.booleans(),
    out_element_nbytes=st.sampled_from([None, 4.0, 16.0]),
    cuda_block_size=st.sampled_from([128, 256]))


@st.composite
def generated_cases(draw):
    mapped = draw(st.booleans()) and draw(st.booleans())
    chain_ = draw(st.lists(members, min_size=1,
                           max_size=1 if mapped else 4))
    return Case(
        members=tuple(chain_),
        comm_mode=(CommMode.GFLINK if mapped
                   else draw(st.sampled_from(list(CommMode)))),
        layout=draw(st.sampled_from([DataLayout.AOS, DataLayout.SOA])),
        mapped=mapped,
        degraded=draw(st.booleans()) and draw(st.booleans()),
        hdfs=draw(st.booleans()),
        n=draw(st.sampled_from([1, 7, 240])),
        scale=draw(st.sampled_from([1.0, 4.0])))


@depth(tier1=20, full=2000)
@given(generated_cases())
def test_generated_case_matches_the_retired_bodies(case):
    assert_same(case)
