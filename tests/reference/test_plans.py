"""Generated plans against the reference: the engine never changes an answer.

A Hypothesis generator builds plans over the public ``DataSet`` / ``GDST``
surface — element and ``vectorized()`` map / map_partition,
``group_by(0).sum/min/max(1)`` and keyed ``reduce``, reduce, count,
iterate, and GPU map / map_partition / reduce — and runs each on a point of
the matrix

    {cpu, gpu, cpu-fallback} x parallelism {1, 2, 5}
    x payload {row list, 2-D block, GStruct block} x cache {off, on}
    x faults {none, a worker killed, a worker drained}.

Its result must equal :func:`tests.reference.interp.evaluate` of the same
plan, as a multiset, by :func:`repro.flink.chaos.values_equal`.  Every
row is ``(k, v)`` with integer-valued fields, so sums are exact and
equality is exact; a row list's keys alternate between ``float`` and
``int``, which a keyed operator must treat as one key.  Tier-1 draws one
matrix point per plan; ``REPRO_FULL_DEPTH=1`` (``scripts/ci.sh``) runs every
plan on the whole matrix.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, NamedTuple, Tuple

import numpy as np
import pytest
from hypothesis import (Phase, example, given, reject, settings,
                        strategies as st)

from repro.core import GFlinkCluster, GFlinkSession
from repro.core.gdst import GpuMapPartitionOp
from repro.core.gpumanager import GPUManagerConfig
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig, plan
from repro.flink.chaos import ChaosSchedule, values_equal
from repro.flink.iterators import field, field_max, field_min, field_sum
from repro.flink.iterators import vectorized
from repro.flink.payload import segment_fold
from repro.gpu import KernelSpec
from tests.flink.conftest import at_depth, depth
from tests.reference.interp import Bag, evaluate

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
    if kind == "rows":  # every other key an int: one key, two scalar types
        return [(k if i % 2 else float(k), float(v))
                for i, (k, v) in enumerate(rows)]
    rows = [(float(k), float(v)) for k, v in rows]
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


# -- the UDFs: an element and a vectorized() spelling of each ----------------------

def v_map(p):
    k, v = kv(p)
    return pairs(k, v * 2.0 + 1.0)


def v_rekey(p):
    k, v = kv(p)
    return pairs(k % 3.0, v)


def v_part(p):
    k, v = kv(p)
    return pairs(k, v - 1.0)


@vectorized
def v_key(block):
    return kv(block)[0].astype(np.int64)


@vectorized
def v_sum(block, starts):
    out = pairs(*kv(block))
    return pairs(out[starts, 0], segment_fold(np.add, out[:, 1], starts))


#: name -> (DataSet method, element UDF, vectorized UDF).
UDFS = {
    "map": ("map", lambda r: (float(r[0]), float(r[1]) * 2.0 + 1.0),
            vectorized(v_map)),
    "rekey": ("map", lambda r: (float(r[0]) % 3.0, float(r[1])),
              vectorized(v_rekey)),
    "map_partition": ("map_partition",
                      lambda p: [(float(r[0]), float(r[1]) - 1.0) for r in p],
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


KERNELS = {"ref_double": k_double, "ref_keep": k_keep, "ref_sum": k_sum}


# -- plans -------------------------------------------------------------------------

class Plan(NamedTuple):
    rows: tuple                  # the source's (k, v) rows
    scale: float
    hdfs: bool                   # the source is an HDFS file
    steps: tuple                 # (name, vectorized, argument) triples
    action: str                  # collect | count | write


ROW = st.tuples(st.integers(0, 5), st.integers(-6, 6))
UNARY = ["map", "rekey", "map_partition", "sum", "min", "max",
         "reduce_keyed", "reduce", "gpu_map", "gpu_keep", "gpu_reduce"]


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
    scale=one_of([1.0, 1000.0]),
    hdfs=st.booleans(),
    steps=steps(UNARY + ["iterate"], steps(UNARY)),
    action=one_of(["collect", "count", "write"]))


def apply_step(ds, step, point: Point):
    name, vec, arg = step
    p, gpu = point.parallelism, point.mode != "cpu"
    gpu_kw = {"cache": point.cache}
    if name in UDFS:
        method, element, block_udf = UDFS[name]
        return getattr(ds, method)(block_udf if vec else element)
    if name in KEYED:
        return ds.group_by(vectorized(field(0)) if vec else 0).reduce(
            vectorized(KEYED[name](1)) if vec else KEYED[name](1),
            parallelism=p)
    if name == "reduce_keyed":
        return (ds.group_by(v_key).reduce(v_sum, parallelism=p) if vec else
                ds.group_by(key).reduce(add, parallelism=p))
    if name == "reduce":
        return ds.reduce(vectorized(lambda b: (float(kv(b)[0].min()),
                                               float(kv(b)[1].sum())))
                         if vec else lambda a, b: (min(float(a[0]),
                                                       float(b[0])),
                                                   add(a, b)[1]))
    if name == "iterate":
        n, body = arg
        return ds.iterate(n, lambda d: _chain(d, body, point))
    if name in ("gpu_map", "gpu_keep"):
        kernel = "ref_double" if name == "gpu_map" else "ref_keep"
        if not gpu:
            return ds.map_partition(vectorized(
                lambda b, fn=KERNELS[kernel]: fn({"in": b}, {})["out"]))
        if name == "gpu_map":
            return ds.gpu_map(kernel, **gpu_kw)
        return ds.gpu_map_partition(kernel, **gpu_kw)
    if name == "gpu_reduce":
        final = lambda a, b: (0.0, float(a[1]) + float(b[1]))  # noqa: E731
        if not gpu:
            return ds.map_partition(vectorized(
                lambda b: k_sum({"in": b}, {})["out"])).reduce(final)
        return ds.gpu_reduce("ref_sum", final, **gpu_kw)
    raise AssertionError(name)


def _chain(ds, body, point):
    for step in body:
        ds = apply_step(ds, step, point)
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
    return _chain(ds, plan_.steps, point), files


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
    for value in values:
        check(value, answer)
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


def check(value, answer):
    """``value`` is the answer."""
    if isinstance(answer, float):
        assert value == answer
    else:
        assert isinstance(answer, Bag)
        assert values_equal(sorted(map(canon, value)),
                            sorted(map(canon, answer.rows)))


# -- the sweep ------------------------------------------------------------------------

#: Written-out plans that every sweep runs first, each the shortest road to
#: one mechanism: a nominal count through a map and a block partition
#: function; a 2-D block keyed by a vectorized field, routed as an int
#: column; int and float keys of one value routed row by row (the
#: integral-float rule of ``hash_bucket``); GStruct records read from HDFS;
#: persisted partitions lost to a worker between two jobs; rows dropped by a
#: kernel on a GPU-less worker, under a drain; and a GPU chain of kernels
#: whose sum is written.  With these, every operator class is reached
#: whatever the depth.
ROWS = tuple((i % 5, i % 7 - 2) for i in range(20))
EXAMPLES = [
    (Plan(ROWS, 1000.0, False, (("map", False, None),
                                ("map_partition", True, None)), "count"),
     Point("cpu", 2, "rows", False, "none")),
    (Plan(ROWS, 1.0, False, (("sum", True, None),), "collect"),
     Point("gpu", 5, "2d", False, "none")),
    (Plan(ROWS, 1.0, False, (("max", False, None),), "collect"),
     Point("cpu", 5, "rows", False, "none")),
    (Plan(ROWS, 1.0, True, (("map", False, None),), "collect"),
     Point("cpu", 1, "struct", False, "none")),
    (Plan(ROWS, 1.0, False, (("rekey", True, None),), "collect"),
     Point("cpu", 5, "rows", True, "kill")),
    (Plan(ROWS, 1000.0, False, (("map", True, None),
                                ("gpu_keep", False, None),
                                ("reduce_keyed", False, None)), "collect"),
     Point("cpu-fallback", 1, "2d", True, "drain")),
    (Plan(ROWS, 1.0, False, (("map_partition", True, None),
                             ("gpu_map", False, None), ("sum", False, None),
                             ("gpu_reduce", False, None)), "write"),
     Point("gpu", 2, "struct", False, "none")),
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
        if not todo:
            reject()
        for p in todo:
            run(plan_, p, seen)

    for plan_, point in EXAMPLES:
        one = example(plan_, point)(one)
    settings(depth(tier1=150, full=60), derandomize=True, database=None,
             phases=phases)(given(plans, points)(one))()


#: What the sweep must reach: every operator class of ``flink/plan.py`` a
#: DataSet builds, and the GPU operators of ``core/gdst.py``.
OPERATORS = {plan.CollectionSource, plan.HdfsSource, plan.MapOp,
             plan.MapPartitionOp, plan.KeyedReduceOp, plan.ReduceOp,
             plan.CollectSink, plan.CountSink, plan.HdfsSink,
             GpuMapPartitionOp}


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
    run(Plan(ROWS, 1.0, False, (("rekey", True, None),), "write"),
        Point("cpu", 5, "rows", True, "kill"))


@pytest.mark.xfail(strict=True, reason="(1, 'a') and (1.0, 'a') are one "
                   "dict key but route to different consumers")
def test_equal_tuple_keys_of_two_types_are_one_key():
    rows = [((1, "a"), 1.0), ((1.0, "a"), 2.0)]
    session = GFlinkSession(cluster_for(MATRIX[0]))
    ds = session.from_collection(rows).group_by(0).reduce(field_sum(1))
    assert len(ds.collect().value) == len(
        evaluate(plan.CollectSink(ds.op)).rows) == 1


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the output "
                   "scale of a partition function is decided per partition "
                   "(repro.flink.plan.partition_output_scale): one that drops "
                   "rows in some partitions only keeps the scale of the "
                   "others, so count() depends on the parallelism")
def test_a_row_dropping_partition_function_counts_at_any_parallelism():
    rows = ((1, 1), (2, 2), (1, 4), (2, 5), (3, 3), (4, 6), (1, 0), (2, 3))
    session = GFlinkSession(cluster_for(MATRIX[0]))
    ds = session.from_collection(make("rows", rows), 16.0, scale=1000.0,
                                 parallelism=2) \
        .map_partition(lambda p: [r for r in p if r[1] % 3 != 0])
    assert ds.count().value == evaluate(plan.CountSink(ds.op))
