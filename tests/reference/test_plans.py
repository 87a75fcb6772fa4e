"""Generated plans against the reference: the engine never changes an answer.

A Hypothesis generator builds plans over the public ``DataSet`` / ``GDST``
surface — element and ``vectorized()`` map / filter / flat_map /
map_partition, ``group_by(0).sum/min/max(1)`` and keyed ``reduce`` /
``reduce_group``, join, co_group, cross, union, distinct with and without a
key, first, sort_partition, reduce, count, iterate, and GPU map / filter /
reduce / join — and runs each on a point of the matrix

    {cpu, gpu, cpu-fallback} x parallelism {1, 2, 5}
    x payload {row list, 2-D block, GStruct block} x cache {off, on}
    x faults {none, a worker killed, a worker drained}.

Its result must equal :func:`tests.reference.interp.evaluate` of the same
plan, as a multiset, by :func:`repro.flink.chaos.values_equal`; order only
where the API promises it (``sort_partition`` on one partition).  Every
row is ``(k, v)`` with integer-valued ``float64`` fields, so sums are exact
and equality is exact.  Tier-1 draws one matrix point per plan;
``REPRO_FULL_DEPTH=1`` (``scripts/ci.sh``) runs every plan on the whole
matrix.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, NamedTuple, Optional, Tuple

import numpy as np
import pytest
from hypothesis import (Phase, example, given, reject, settings,
                        strategies as st)

from repro.core import GFlinkCluster, GFlinkSession
from repro.core.gdst import GpuJoinOp, GpuMapPartitionOp
from repro.core.gpumanager import GPUManagerConfig
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig, plan
from repro.flink.chaos import ChaosSchedule, values_equal
from repro.flink.iterators import field, field_max, field_min, field_sum
from repro.flink.iterators import vectorized
from repro.flink.payload import segment_sum
from repro.gpu import KernelSpec
from tests.flink.conftest import at_depth, depth
from tests.reference.interp import Bag, NoBlock, Pick, evaluate

MODES = ("cpu", "gpu", "cpu-fallback")
PARALLELISM = (1, 2, 5)
PAYLOADS = ("rows", "2d", "struct")
CACHE = (False, True)
FAULTS = ("none", "kill", "drain")

#: A GStruct record of two integer-valued float64 fields.
KV = np.dtype([("k", np.float64), ("v", np.float64)])


class Point(NamedTuple):
    mode: str
    parallelism: int
    payload: str
    cache: bool
    faults: str


AXES = (MODES, PARALLELISM, PAYLOADS, CACHE, FAULTS)
MATRIX = [Point(*p) for p in itertools.product(*AXES)]


def one_of(values):
    """A value of ``values``, drawn as an index (no bias to the first)."""
    return st.integers(0, len(values) - 1).map(values.__getitem__)


points = st.builds(Point, *map(one_of, AXES))


# -- (k, v) rows in any format -------------------------------------------------

def make(kind: str, rows) -> Any:
    rows = [(float(k), float(v)) for k, v in rows]
    if kind == "rows":
        return rows
    if kind == "struct":
        return np.array(rows, dtype=KV)
    return np.array(rows, dtype=np.float64).reshape(len(rows), 2)


def kv(payload) -> Tuple[np.ndarray, np.ndarray]:
    """The two columns of a payload: a row list, a 2-D or a GStruct block."""
    b = np.asarray(payload)
    if b.dtype.names:
        return b[b.dtype.names[0]], b[b.dtype.names[1]]
    b = b.reshape(len(b), 2).astype(np.float64)
    return b[:, 0], b[:, 1]


def pairs(k, v) -> np.ndarray:
    return np.stack([np.asarray(k, np.float64), np.asarray(v, np.float64)],
                    axis=1)


def row(r) -> Tuple[float, float]:
    return float(r[0]), float(r[1])


# -- the UDFs: an element and a vectorized() spelling of each ----------------------

def v_map(p):
    k, v = kv(p)
    return pairs(k, v * 2.0 + 1.0)


def v_rekey(p):
    k, v = kv(p)
    return pairs(k % 3.0, v)


def v_flat(p):
    k, v = kv(p)
    return np.repeat(pairs(k, v), k.astype(np.int64) % 3, axis=0)


def v_part(p):
    k, v = kv(p)
    return pairs(k, v - 1.0)


@vectorized
def v_key(block):
    return kv(block)[0].astype(np.int64)


@vectorized
def v_sum(block, starts):
    out = pairs(*kv(block))
    return pairs(out[starts, 0], segment_sum(out[:, 1], starts))


UDFS = {
    "map": (lambda r: (float(r[0]), float(r[1]) * 2.0 + 1.0), vectorized(v_map)),
    "rekey": (lambda r: (float(r[0]) % 3.0, float(r[1])), vectorized(v_rekey)),
    "filter": (lambda r: float(r[1]) % 3.0 != 0.0,
               vectorized(lambda p: kv(p)[1] % 3.0 != 0.0)),
    "flat_map": (lambda r: [row(r)] * (int(r[0]) % 3), vectorized(v_flat)),
    "map_partition": (lambda p: [(float(r[0]), float(r[1]) - 1.0) for r in p],
                      vectorized(v_part)),
}
KEYED = {"sum": field_sum, "min": field_min, "max": field_max}


def key(r):
    return float(r[0])


def add(a, b):
    return float(a[0]), float(a[1]) + float(b[1])


# -- GPU kernels (CPU mode runs the same body in a map_partition) ------------------

def k_double(i, p):
    k, v = kv(i["in"])
    return {"out": pairs(k, v * 2.0)}


def k_keep(i, p):
    k, v = kv(i["in"])
    return {"out": pairs(k, v)[v > 0.0]}


def k_sum(i, p):
    return {"out": pairs([0.0], [kv(i["in"])[1].sum()])}


def k_join(i, p):
    (lk, lv), (rk, rv) = kv(i["in"]), kv(i["right"])
    li, ri = np.nonzero(lk[:, None] == rk[None, :])
    return {"out": pairs(lk[li], lv[li] + rv[ri])}


KERNELS = {"ref_double": k_double, "ref_keep": k_keep, "ref_sum": k_sum,
           "ref_join": k_join}


# -- plans -------------------------------------------------------------------------

class Plan(NamedTuple):
    rows: tuple                  # the main source's (k, v) rows
    other: tuple                 # the second source's (binary operators)
    scale: float
    hdfs: bool                   # the main source is an HDFS file
    steps: tuple                 # (name, vectorized, argument) triples
    last: Optional[tuple]        # first / distinct-by-key / sort_partition
    action: str                  # collect | count | write


ROW = st.tuples(st.integers(0, 5), st.integers(-6, 6))
UNARY = ["map", "rekey", "filter", "flat_map", "map_partition", "sum", "min",
         "max", "reduce_keyed", "reduce_group", "reduce", "distinct",
         "gpu_map", "gpu_filter", "gpu_reduce"]
BINARY = ["join", "co_group", "cross", "union", "gpu_join"]


def steps(names, loop_body=None):
    """Steps ``(name, vectorized, argument)``; ``iterate``'s argument is its
    count and its body."""
    arg = (st.tuples(st.integers(1, 3), loop_body) if loop_body is not None
           else st.none())
    return st.lists(st.tuples(one_of(names), st.booleans(), arg),
                    min_size=1, max_size=2 if loop_body is None else 4).map(tuple)


plans = st.builds(
    Plan,
    rows=st.lists(ROW, min_size=6, max_size=24).map(tuple),
    other=st.lists(ROW, min_size=1, max_size=6).map(tuple),
    scale=one_of([1.0, 1000.0]),
    hdfs=st.booleans(),
    steps=steps(UNARY + BINARY + ["iterate"], steps(UNARY)),
    last=st.sampled_from([None, "first", "distinct_key", "sort"]).flatmap(
        lambda last: st.just(None) if last is None else st.tuples(
            st.just(last), st.integers(1, 6) if last == "first"
            else st.booleans())),
    action=one_of(["collect", "count", "write"]))


def apply_step(ds, step, other, point: Point):
    name, vec, arg = step
    p, gpu = point.parallelism, point.mode != "cpu"
    gpu_kw = {"cache": point.cache}
    if name in UDFS:
        return getattr(ds, name if name != "rekey" else "map")(
            UDFS[name][vec])
    if name in KEYED:
        return ds.group_by(vectorized(field(0)) if vec else 0).reduce(
            vectorized(KEYED[name](1)) if vec else KEYED[name](1),
            parallelism=p)
    if name == "reduce_keyed":
        return (ds.group_by(v_key).reduce(v_sum, parallelism=p) if vec else
                ds.group_by(key).reduce(add, parallelism=p))
    if name == "reduce_group":
        return ds.group_by(v_key if vec else field(0)).reduce_group(
            lambda k, ms: (float(k), float(sum(float(m[1]) for m in ms))),
            parallelism=p)
    if name == "reduce":
        return ds.reduce(vectorized(lambda b: (float(kv(b)[0].min()),
                                               float(kv(b)[1].sum())))
                         if vec else lambda a, b: (min(float(a[0]),
                                                       float(b[0])),
                                                   add(a, b)[1]))
    if name == "distinct":
        return ds.distinct(parallelism=p)
    if name == "iterate":
        n, body = arg
        return ds.iterate(n, lambda d: _chain(d, body, other, point))
    if name in ("gpu_map", "gpu_filter"):
        kernel = "ref_double" if name == "gpu_map" else "ref_keep"
        if not gpu:
            return ds.map_partition(vectorized(
                lambda b, fn=KERNELS[kernel]: fn({"in": b}, {})["out"]))
        return getattr(ds, name)(kernel, **gpu_kw)
    if name == "gpu_reduce":
        final = lambda a, b: (0.0, float(a[1]) + float(b[1]))  # noqa: E731
        if not gpu:
            return ds.map_partition(vectorized(
                lambda b: k_sum({"in": b}, {})["out"])).reduce(final)
        return ds.gpu_reduce("ref_sum", final, **gpu_kw)
    if name == "join":  # field(0) routes a block's keys as an int column
        return ds.join(other, field(0) if vec else key, key, add,
                       parallelism=p)
    if name == "gpu_join":
        if not gpu:
            return ds.join(other, key, key, add, parallelism=p)
        return ds.gpu_join(other, key, key, "ref_join", parallelism=p)
    if name == "co_group":
        return ds.co_group(other, field(0) if vec else key, key,
                           lambda k, ls, rs: (
            float(k), float(len(ls) - 2 * len(rs))), parallelism=p)
    if name == "cross":
        return ds.cross(other, lambda l, r: (
            float(l[0]), float(l[1]) * float(r[1])))
    assert name == "union", name
    return ds.union(other)


def _chain(ds, body, other, point):
    for step in body:
        ds = apply_step(ds, step, other, point)
    return ds


# -- one run -------------------------------------------------------------------------

def cluster_for(point: Point) -> GFlinkCluster:
    flink = FlinkConfig(heartbeat_interval_s=0.02, heartbeat_timeout_s=0.05,
                        retry_backoff_base_s=0.01)
    cluster = GFlinkCluster(
        ClusterConfig(n_workers=3, cpu=CPUSpec(cores=2),
                      gpus_per_worker=() if point.mode == "cpu"
                      else ("c2050",), flink=flink),
        gpu_config=GPUManagerConfig(block_nbytes=4096))
    for name, fn in KERNELS.items():
        cluster.registry.register(KernelSpec(name, fn, flops_per_element=2.0,
                                             efficiency=0.5))
    return cluster


def build(session, cluster, plan_: Plan, point: Point):
    """The plan's dataset on ``session`` and the HDFS files it reads."""
    files = {}
    if plan_.hdfs:
        chunk = max(1, len(plan_.rows) // 2)
        files["/in"] = [make(point.payload, plan_.rows[i:i + chunk])
                        for i in range(0, len(plan_.rows), chunk)]
        cluster.load_hdfs_file("/in", [(c, 16 * len(c) * int(plan_.scale))
                                       for c in files["/in"]])
        ds = session.read_hdfs("/in", 16.0, scale=plan_.scale,
                               parallelism=point.parallelism)
    else:
        ds = session.from_collection(make(point.payload, plan_.rows), 16.0,
                                     scale=plan_.scale,
                                     parallelism=point.parallelism)
    other = session.from_collection(make(point.payload, plan_.other), 16.0,
                                    scale=plan_.scale,
                                    parallelism=point.parallelism)
    ds = _chain(ds, plan_.steps, other, point)
    if plan_.last is not None:
        name, arg = plan_.last
        ds = (ds.first(arg) if name == "first"
              else ds.distinct(field(0), parallelism=point.parallelism)
              if name == "distinct_key" else ds.sort_partition(
                  lambda r: float(r[1]), reverse=arg))
    return ds, files


def run(plan_: Plan, point: Point, seen=None):
    """Every job of ``plan_`` at ``point``, each checked against the
    reference."""
    def attempt(fault_at):
        cluster = cluster_for(point)
        ds, files = build(GFlinkSession(cluster), cluster, plan_, point)
        sink = SINKS[plan_.action](ds.op)
        # The logical plan, before a job's optimizer rewrites it.
        answer = evaluate(sink, cluster.registry, files)
        if seen is not None:
            seen.update(type(op) for op in walk(sink))
        if isinstance(answer, float) and math.isnan(answer):
            reject()  # rows of unknown weight: no count to hold it to
        if point.cache:
            ds.persist()
        schedule = ChaosSchedule()
        if point.mode == "cpu-fallback":
            for worker in cluster.workers:
                schedule.fail_gpu(worker, 0, at=0.0)
        if fault_at is not None:
            if point.faults == "kill":
                schedule.kill_worker("worker1", at=fault_at)
            else:
                schedule.drain_worker("worker2", at=fault_at)
        if len(schedule):
            cluster.install_chaos(schedule)
        values, marks = [], [cluster.env.now]
        for _ in range(2 if point.cache else 1):
            values.append(act(ds, plan_.action, cluster))
            marks.append(cluster.env.now)
        if point.cache:  # the second job recovered what the first lost
            assert all(cluster.worker_is_alive(p.worker)
                       for p in cluster.materialized[ds.op.uid])
        return sink, answer, values, marks

    fault_at = None
    if point.faults != "none":
        # Halfway through the fault-free job; with the cache on, as the
        # first job ends: the second must recover what was persisted.
        marks = attempt(None)[3]
        fault_at = marks[1] if point.cache else (marks[0] + marks[1]) / 2
    sink, answer, values, _ = attempt(fault_at)
    # One partition end to end: only a union adds partitions.
    ordered = point.parallelism == 1 and "union" not in repr(plan_.steps)
    for value in values:
        check(value, answer, ordered)
        if ordered and plan_.last and plan_.last[0] == "sort" \
                and plan_.action != "count":
            assert list(map(canon, value)) == list(map(canon, answer.rows))
    if seen is not None:
        seen.update(zip(Point._fields, point))


SINKS = {"collect": plan.CollectSink, "count": plan.CountSink,
         "write": lambda op: plan.HdfsSink(op, "/out")}


def act(ds, action, cluster):
    if action == "count":
        return ds.count().value
    if action == "collect":
        return ds.collect().value
    path = f"/out{len(cluster.hdfs.namenode.list_files())}"
    ds.write_hdfs(path)
    return [r for b in cluster.hdfs.namenode.get_file(path).blocks
            for r in b.payload]


def walk(op):
    yield op
    for parent in op.inputs:
        yield from walk(parent)


def canon(r) -> tuple:
    fields = r.tolist() if hasattr(r, "tolist") else r
    if not isinstance(fields, (tuple, list)):
        fields = (fields,)
    return tuple(float(x) for x in fields)


def check(value, answer, ordered=False):
    """``value`` is the answer; with ``ordered`` (one partition throughout)
    a pick-first choice must be the first row of each group."""
    if isinstance(answer, float):
        assert value == answer
    elif isinstance(answer, Bag):
        assert values_equal(sorted(map(canon, value)),
                            sorted(map(canon, answer.rows)))
    else:
        assert isinstance(answer, Pick)
        assert len(value) == sum(answer.counts)
        if ordered and answer.first_wins:
            answer = Bag([g[0] for g in answer.groups], None)
            return check(value, answer)
        left = [[canon(r) for r in g] for g in answer.groups]
        counts = list(answer.counts)
        for r in map(canon, value):
            i = next(i for i, g in enumerate(left) if counts[i] and r in g)
            left[i].remove(r)
            counts[i] -= 1


# -- the sweep ------------------------------------------------------------------------

#: Written-out plans that every sweep runs first, each the shortest road to
#: one mechanism: a nominal count through element-wise operators; keys of
#: one value routed as an int column on one side of a join and as floats on
#: the other; distinct's pick-first on one partition; persisted partitions
#: lost to a worker between two jobs; a 2-D and a GStruct block meeting in
#: one keyed consumer after a union.  With the last two, every operator
#: class is reached whatever the depth.
ROWS = tuple((i % 5, i % 7 - 2) for i in range(20))
EXAMPLES = [
    (Plan(ROWS, ((1, 1),), 1000.0, False, (("filter", False, None),
                                           ("flat_map", True, None)),
          None, "count"), Point("cpu", 2, "rows", False, "none")),
    (Plan(ROWS, ((2, 1), (3, 2)), 1.0, False, (("join", True, None),),
          None, "collect"), Point("gpu", 5, "2d", False, "none")),
    (Plan(ROWS, ((1, 1),), 1.0, True, (("map", False, None),),
          ("distinct_key", None), "collect"),
     Point("cpu", 1, "struct", False, "none")),
    (Plan(ROWS, ((1, 1),), 1.0, False, (("rekey", True, None),),
          None, "collect"), Point("cpu", 5, "rows", True, "kill")),
    (Plan(ROWS, ((1, 2), (4, 3)), 1000.0, False, (
        ("cross", False, None), ("gpu_join", False, None),
        ("reduce_group", False, None)), ("sort", True), "collect"),
     Point("cpu-fallback", 1, "2d", True, "drain")),
    (Plan(ROWS, ((1, 2), (4, 3)), 1.0, False, (
        ("map_partition", True, None), ("gpu_map", False, None),
        ("union", False, None), ("sum", False, None),
        ("co_group", False, None), ("reduce", False, None)),
        ("first", 3), "write"), Point("gpu", 2, "struct", False, "none")),
]


def known_defect(plan_: Plan, point: Point) -> bool:
    """A write under a worker kill: see test_a_write_survives_a_kill."""
    return plan_.action == "write" and point.faults == "kill"


def sweep(seen=None, shrink=True):
    """The generated sweep: one matrix point per plan in tier-1, every point
    of the matrix per plan at full depth."""
    phases = tuple(Phase) if shrink else (Phase.explicit, Phase.generate)

    def one(plan_, point):
        todo = [p for p in at_depth([point], MATRIX)
                if not known_defect(plan_, p)]
        answered = 0
        for p in todo:
            try:
                run(plan_, p, seen)
                answered += 1
            except NoBlock:  # a union of records and plain rows fed a block
                pass
        if not answered:
            reject()

    for plan_, point in EXAMPLES:
        one = example(plan_, point)(one)
    settings(depth(tier1=150, full=60), derandomize=True, database=None,
             phases=phases)(given(plans, points)(one))()


#: What the sweep must reach: every operator class of ``flink/plan.py`` a
#: DataSet builds, and the GPU operators of ``core/gdst.py``.
OPERATORS = {plan.CollectionSource, plan.HdfsSource, plan.MapOp,
             plan.FilterOp, plan.FlatMapOp, plan.MapPartitionOp,
             plan.KeyedReduceOp, plan.GroupReduceOp, plan.ReduceOp,
             plan.JoinOp, plan.UnionOp, plan.DistinctOp, plan.FirstNOp,
             plan.SortPartitionOp, plan.CrossOp, plan.CoGroupOp,
             plan.CollectSink, plan.CountSink, plan.HdfsSink,
             GpuMapPartitionOp, GpuJoinOp}


def test_every_generated_plan_matches_the_reference():
    seen = set()
    sweep(seen)
    assert OPERATORS <= seen, OPERATORS - seen
    for axis, values in zip(Point._fields, AXES):
        assert {(axis, v) for v in values} <= seen, axis


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="a sink "
                   "subtask killed as its block lands appends it again when "
                   "retried")
def test_a_write_survives_a_kill():
    run(Plan(ROWS, ((1, 1),), 1.0, False, (("rekey", True, None),), None,
             "write"), Point("cpu", 5, "rows", True, "kill"))


def test_a_gstruct_and_a_2d_block_union():
    session = GFlinkSession(cluster_for(MATRIX[0]))
    ds = session.from_collection(make("struct", [(1, 2)])).union(
        session.from_collection(make("2d", [(3, 4)])))
    check(ds.collect().value, evaluate(plan.CollectSink(ds.op)))


@pytest.mark.xfail(strict=True, reason="(1, 'a') and (1.0, 'a') are one "
                   "dict key but route to different consumers")
def test_equal_tuple_keys_of_two_types_are_one_key():
    rows = [((1, "a"), 1.0), ((1.0, "a"), 2.0)]
    session = GFlinkSession(cluster_for(MATRIX[0]))
    ds = session.from_collection(rows).group_by(0).sum(1)
    assert len(ds.collect().value) == len(
        evaluate(plan.CollectSink(ds.op)).rows) == 1
