"""Per-layer probes: each layer's public API driven alone, off the job path.

A probe is a factory ``make(n) -> (ops, run)``: the factory builds fresh
state untimed, ``run()`` performs a fixed amount of work and is the only
thing timed.  Every probe runs ``REPEATS`` times and reports the median, as a
rate (ops per host second), as MB per host second, or as host ns per op.
All of it is wall clock; the simulated clock inside each ``Environment`` is
only the thing being driven.

``run.py`` starts this file as a child process and reads one JSON document
from its stdout; ``--scale 0.05`` is what ``--quick`` uses.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.common import Environment, Resource, Store
from repro.common.network import Network
from repro.core import GFlinkCluster, GFlinkSession
from repro.core.gmemory import EvictionPolicy, GMemoryManager
from repro.core.gpumanager import GPUManager
from repro.core.gwork import GWork
from repro.core.hbuffer import HBuffer
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig, OpCost, Partition
from repro.flink.graph import ExecutionGraph
from repro.flink.iterators import vectorized
from repro.flink.optimizer import apply_chaining
from repro.flink.plan import CollectSink, ShipStrategy
from repro.flink.serialization import Serializer
from repro.flink.shuffle import Exchange
from repro.gpu import (CUDARuntime, DeviceBuffer, GPUDevice, KernelRegistry,
                       KernelSpec, LaunchConfig, TESLA_C2050)
from repro.gpu.memory import HostBuffer
from repro.hdfs import HDFS
from repro.obs import GMonitor, MetricsRegistry, Tracer
from repro.obs.export import write_chrome_trace
from repro.obs.profile import summarize_tracer
from repro.workloads import PageRankWorkload
from repro.workloads.pagerank import Edge

REPEATS = 5
#: Scratch directory: the export probe's output file.
OUT = Path(__file__).resolve().parent / "out"
NODES = [f"worker{i}" for i in range(10)]
MB = 1e6


# -- common.simclock ----------------------------------------------------------------
def timeout_chain(n):
    env = Environment()

    def chain():
        for _ in range(n):
            yield env.timeout(1.0)

    proc = env.process(chain())
    return n, lambda: env.run(until=proc)


def fanin(n):
    """AllOf over 1k processes, ``n`` rounds; ops = events stepped."""
    def build():
        env = Environment()

        def leaf(i):
            yield env.timeout(1.0 + i % 7)

        def root():
            for _ in range(n):
                yield env.all_of([env.process(leaf(i)) for i in range(1000)])

        return env, env.process(root())

    env, _ = build()
    events = 0
    while env.peek() != float("inf"):   # untimed dry run counts the events
        env.step()
        events += 1
    env, root = build()
    return events, lambda: env.run(until=root)


# -- common.resources ----------------------------------------------------------------
def contended_requests(n):
    """64 processes on a capacity-4 resource, ``n`` requests in all."""
    env = Environment()
    resource = Resource(env, capacity=4)
    per_proc = max(n // 64, 1)

    def user():
        for _ in range(per_proc):
            with resource.request() as grant:
                yield grant
                yield env.timeout(1.0)

    done = env.all_of([env.process(user()) for _ in range(64)])
    return 64 * per_proc, lambda: env.run(until=done)


def store_handoffs(n):
    env = Environment()
    store = Store(env, capacity=1)

    def producer():
        for i in range(n):
            yield store.put(i)

    def consumer():
        for _ in range(n):
            yield store.get()

    env.process(producer())
    done = env.process(consumer())
    return n, lambda: env.run(until=done)


# -- common.network --------------------------------------------------------------------
def network_transfers(n):
    """10-node all-to-all: every ordered pair sends its share of ``n``."""
    env = Environment()
    network = Network(env, NODES)
    per_pair = max(n // 90, 1)

    def sender(src, dst):
        for _ in range(per_pair):
            yield from network.transfer(src, dst, 1 << 20)

    done = env.all_of([env.process(sender(s, d))
                       for s in NODES for d in NODES if s != d])
    return 90 * per_pair, lambda: env.run(until=done)


# -- hdfs ------------------------------------------------------------------------------
def _hdfs():
    env = Environment()
    return env, HDFS(env, NODES, Network(env, NODES))


def hdfs_block_writes(n):
    env, hdfs = _hdfs()
    proc = env.process(hdfs.write(
        "/probe", [(None, 64 << 20)] * n, writer_node=NODES[0]))
    return n, lambda: env.run(until=proc)


def hdfs_block_reads(n):
    """Every block read once, from a node that rotates: local and remote."""
    env, hdfs = _hdfs()
    env.run(until=env.process(hdfs.write("/probe", [(None, 64 << 20)] * n)))
    blocks = hdfs.locate("/probe")

    def reader():
        for i, block in enumerate(blocks):
            yield from hdfs.read_block(block, NODES[i % len(NODES)])

    proc = env.process(reader())
    return n, lambda: env.run(until=proc)


# -- flink: plan + optimizer -----------------------------------------------------------
def _paper_cluster(**flink):
    return GFlinkCluster(ClusterConfig(
        n_workers=10, cpu=CPUSpec(), gpus_per_worker=("c2050", "c2050"),
        flink=FlinkConfig(**flink)))


def plan_lower_optimize(n):
    """One PageRank iteration's graph: built, chained, lowered; not run."""
    cluster = _paper_cluster()
    session = GFlinkSession(cluster)
    flink = cluster.config.flink

    def run():
        for _ in range(n):
            summed = session.read_hdfs("/pagerank/input", 8.0, scale=1e3) \
                .map_partition(lambda e: e, cost=OpCost(flops_per_element=6.0),
                               name="contrib") \
                .map_partition(lambda rows: rows, name="tuples") \
                .group_by(lambda kv: kv[0]) \
                .reduce(lambda a, b: a, cost=OpCost(flops_per_element=1.0))
            sinks = apply_chaining([CollectSink(summed.op)],
                                   cpu=flink.enable_chaining,
                                   gpu=flink.enable_gpu_chaining)
            graph = ExecutionGraph(sinks, cluster.default_parallelism)
            if not graph.pipeline_regions():
                raise RuntimeError("empty plan")

    return n, run


# -- flink.shuffle ---------------------------------------------------------------------
def _hash_exchange(n_rows, columnar):
    """One HASH Exchange.run() of keyed rows, 40 -> 40 partitions."""
    env = Environment()
    rng = np.random.default_rng(11)
    per_part = max(n_rows // 40, 1)
    producers = []
    for i in range(40):
        block = np.stack([rng.integers(0, 10_000, per_part).astype(float),
                          rng.random(per_part)], axis=1)
        elements = block if columnar \
            else [(int(k), float(v)) for k, v in block]
        producers.append(Partition(i, elements, element_nbytes=16.0,
                                   scale=1e3, worker=NODES[i % 10]))
    key_fn = vectorized(lambda rows: rows[:, 0].astype(np.int64)) \
        if columnar else (lambda kv: kv[0])
    exchange = Exchange(env, Network(env, NODES),
                        Serializer(FlinkConfig().serde_bps),
                        ShipStrategy.HASH, producers, 40,
                        [NODES[j % 10] for j in range(40)], key_fn=key_fn)
    proc = env.process(exchange.run())

    def run():
        result = env.run(until=proc)
        rows = sum(p.real_count for p in result.inputs)
        if rows != 40 * per_part or \
                (result.bytes_zero_copy > 0) != columnar:
            raise RuntimeError("exchange lost rows or took the wrong path")

    return 40 * per_part, run


# -- core ------------------------------------------------------------------------------
def _edges(n):
    rng = np.random.default_rng(7)
    arr = Edge.empty(n)
    arr["src"] = rng.integers(0, 1 << 20, n)
    arr["dst"] = rng.integers(0, 1 << 20, n)
    return arr


def gstruct_pack(n):
    arr = _edges(n)
    return arr.nbytes / MB, lambda: Edge.to_bytes(arr)


def gstruct_unpack(n):
    raw = Edge.to_bytes(_edges(n))
    return len(raw) / MB, lambda: Edge.from_bytes(raw)


def gstruct_soa_roundtrip(n):
    arr = _edges(n)

    def run():
        if not np.array_equal(Edge.from_soa(Edge.to_soa(arr)), arr):
            raise RuntimeError("SoA round trip changed the records")

    return arr.nbytes / MB, run


def hbuffer_split_blocks(n):
    """Split a 1M-record buffer (8 GB nominal) into 8 MiB blocks, n times."""
    buffer = HBuffer.for_struct(Edge, _edges(1_000_000), scale=1e3)
    per_split = len(buffer.split_blocks(8 << 20))

    def run():
        for _ in range(n):
            buffer.split_blocks(8 << 20)

    return n * per_split, run


def gmemory_cache_ops(n):
    """Lookup-else-insert over twice the capacity, FIFO then LRU."""
    env = Environment()
    regions = [GMemoryManager([GPUDevice(env, TESLA_C2050)], 64 << 20,
                              policy).region("probe", 0)
               for policy in (EvictionPolicy.FIFO, EvictionPolicy.LRU)]
    per_policy = max(n // 2, 1)

    def run():
        for region in regions:
            for i in range(per_policy):
                key = (i * 7919) % 128        # 128 x 1 MiB over 64 MiB
                if region.lookup(key) is None:
                    region.try_insert(key, 1 << 20)
            if not region.evictions:
                raise RuntimeError("cache probe never evicted")

    return 2 * per_policy, run


def _double_kernel():
    registry = KernelRegistry()
    registry.register(KernelSpec(
        "double", lambda i, p: {"out": i["in"] * 2.0},
        flops_per_element=2.0, efficiency=0.5))
    return registry


def gstream_gworks(n):
    """GWorks through one worker's H2D -> kernel -> D2H pipeline."""
    env = Environment()
    manager = GPUManager(env, "worker0", ("c2050", "c2050"), _double_kernel())
    data = np.arange(4096, dtype=np.float64)

    def work():
        # 32 MiB nominal per GWork: four pipeline blocks of 8 MiB.
        return GWork(
            execute_name="double",
            in_buffers={"in": HBuffer(data, 8, scale=1024.0, pinned=True)},
            out_buffer=HBuffer([], 8, pinned=True),
            size=len(data) * 1024.0, app_id="probe")

    def run():
        env.run(until=env.all_of([manager.submit(work()) for _ in range(n)]))
        if manager.gstream_manager.works_completed != n:
            raise RuntimeError("GWorks did not all complete")

    return n, run


# -- gpu -------------------------------------------------------------------------------
def _cuda():
    env = Environment()
    device = GPUDevice(env, TESLA_C2050)
    runtime = CUDARuntime(env, [device], _double_kernel())
    return env, device, runtime, runtime.stream_create(device)


def kernel_dispatch(n):
    env, device, runtime, stream = _cuda()
    src, dst = DeviceBuffer(128, device.name), DeviceBuffer(128, device.name)
    src.data = np.arange(16, dtype=np.float64)
    launch = LaunchConfig.for_elements(1000)

    def run():
        for _ in range(n):
            runtime.registry.get("double")
            runtime.launch_kernel(device, stream, "double", 1000.0, launch,
                                  {"in": src}, {"out": dst})
        env.run(until=runtime.stream_synchronize(stream))
        if device.kernels_launched != n:
            raise RuntimeError("kernels were not all launched")

    return n, run


def memcpy_ops(n):
    env, device, runtime, stream = _cuda()
    host = HostBuffer(1 << 20, np.arange(16, dtype=np.float64), pinned=True)
    dev = DeviceBuffer(1 << 20, device.name)
    pairs = max(n // 2, 1)

    def run():
        for _ in range(pairs):
            runtime.memcpy_h2d_async(device, stream, dev, host)
            runtime.memcpy_d2h_async(device, stream, host, dev)
        env.run(until=runtime.stream_synchronize(stream))

    return 2 * pairs, run


# -- obs -------------------------------------------------------------------------------
def _spans(n, enabled):
    tracer = Tracer(Environment(), enabled=enabled)
    track = tracer.track("worker0", "probe")

    def run():
        for i in range(n):
            with tracer.span("op", "probe", track, i=i):
                pass

    return n, run


def _counter_incs(n, enabled):
    registry = MetricsRegistry(enabled=enabled)

    def run():
        for _ in range(n):
            registry.counter("probe.ops", kind="x").inc()

    return n, run


def monitor_feed(n):
    """Histogram feeds; the clock crosses a window every 1000 of them."""
    env = Environment()
    monitor = GMonitor(env, registry=MetricsRegistry())

    def run():
        for i in range(n):
            if i % 1000 == 0:
                env.run(until=env.now + 1.0)
            monitor.observe("probe.latency_s", 0.5, op="x")

    return n, run


@functools.cache
def _traced_tracer() -> Tracer:
    """The tracer of one small traced PageRank-GPU job (shared fixture)."""
    cluster = _paper_cluster(enable_tracing=True)
    PageRankWorkload(nominal_pages=1e6, real_pages=2_000, iterations=2) \
        .run(GFlinkSession(cluster), "gpu")
    return cluster.obs.tracer


def export_events(n):
    tracer = _traced_tracer()

    def run():
        for _ in range(n):
            write_chrome_trace(tracer, OUT / "probe_trace.json")

    return n * len(tracer), run


def summarize_spans(n):
    tracer = _traced_tracer()

    def run():
        for _ in range(n):
            if not summarize_tracer(tracer)["critical_path"]:
                raise RuntimeError("empty profile summary")

    return n * len(tracer.spans()), run


#: metric -> (unit, full-size n, factory).  Units ``1/s`` and ``MB/s`` are
#: ops / median seconds; ``ns`` is median seconds / ops.
PROBES = {
    "common.simclock.timeout_events_per_s": ("1/s", 200_000, timeout_chain),
    "common.simclock.fanin_events_per_s": ("1/s", 10, fanin),
    "common.resources.contended_requests_per_s":
        ("1/s", 16_000, contended_requests),
    "common.resources.store_handoffs_per_s": ("1/s", 25_000, store_handoffs),
    "common.network.transfers_per_s": ("1/s", 4_500, network_transfers),
    "hdfs.block_writes_per_s": ("1/s", 1_000, hdfs_block_writes),
    "hdfs.block_reads_per_s": ("1/s", 2_000, hdfs_block_reads),
    "flink.plan.lower_optimize_per_s": ("1/s", 400, plan_lower_optimize),
    "flink.shuffle.row_rows_per_s": ("1/s", 200_000, functools.partial(_hash_exchange, columnar=False)),
    "flink.shuffle.columnar_rows_per_s": ("1/s", 200_000, functools.partial(_hash_exchange, columnar=True)),
    "core.gstruct.pack_mb_per_s": ("MB/s", 1_000_000, gstruct_pack),
    "core.gstruct.unpack_mb_per_s": ("MB/s", 1_000_000, gstruct_unpack),
    "core.gstruct.soa_roundtrip_mb_per_s":
        ("MB/s", 1_000_000, gstruct_soa_roundtrip),
    "core.hbuffer.split_blocks_per_s": ("1/s", 50, hbuffer_split_blocks),
    "core.gmemory.cache_ops_per_s": ("1/s", 50_000, gmemory_cache_ops),
    "core.gstream.gworks_per_s": ("1/s", 200, gstream_gworks),
    "gpu.kernel_dispatch_per_s": ("1/s", 4_000, kernel_dispatch),
    "gpu.memcpy_ops_per_s": ("1/s", 4_000, memcpy_ops),
    "obs.span_ns": ("ns", 50_000, functools.partial(_spans, enabled=True)),
    "obs.span_disabled_ns": ("ns", 50_000, functools.partial(_spans, enabled=False)),
    "obs.counter_inc_ns": ("ns", 50_000, functools.partial(_counter_incs, enabled=True)),
    "obs.counter_inc_disabled_ns": ("ns", 50_000, functools.partial(_counter_incs, enabled=False)),
    "obs.monitor_feed_ns": ("ns", 40_000, monitor_feed),
    "obs.export_events_per_s": ("1/s", 8, export_events),
    "obs.summarize_spans_per_s": ("1/s", 8, summarize_spans),
}


def run_probes(scale: float) -> dict:
    results = {}
    for name, (unit, full_n, make) in PROBES.items():
        n = max(int(full_n * scale), 1)
        seconds = []
        for _ in range(REPEATS):
            ops, run = make(n)
            t0 = time.perf_counter()
            run()
            seconds.append(time.perf_counter() - t0)
        median = statistics.median(seconds)
        value = median / ops * 1e9 if unit == "ns" else ops / median
        results[name] = {"value": value, "unit": unit, "ops": ops,
                         "median_s": median, "samples": REPEATS}
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    json.dump(run_probes(args.scale), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
