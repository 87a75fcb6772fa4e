"""A block is priced once: the runtime's memoised launch geometry and
roofline seconds are the values a fresh evaluation gives, bit for bit.

``CUDARuntime.launch_config`` and ``CUDARuntime.price`` keep what
``LaunchConfig.for_elements`` and ``KernelSpec.execution_seconds`` return per
distinct shape instead of re-deriving them for every block of a pipeline,
and a pipeline's kernel stage asks ``price`` once per (stage, nominal
count).
Nothing simulated may depend on whether an entry was found.
"""

from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.common import Environment
from repro.core import GFlinkCluster, GFlinkSession
from repro.core.channels import CommCosts, CUDAWrapper
from repro.core.gmemory import GMemoryManager
from repro.core.gstream import GStreamManager
from repro.core.gstruct import DataLayout
from repro.core.gwork import GWork, KernelStage
from repro.core.hbuffer import HBuffer
from repro.flink import ClusterConfig, CPUSpec
from repro.gpu import (CUDARuntime, DeviceBuffer, GPUDevice, KernelRegistry,
                       KernelSpec, LaunchConfig, TESLA_C2050, TESLA_K20, TESLA_P100)
from repro.workloads import LinearRegressionWorkload

LAYOUTS = [None, DataLayout.AOS, DataLayout.SOA, DataLayout.AOP]
SPECS = [TESLA_C2050, TESLA_K20, TESLA_P100]


def kernels():
    """Two kernels every layout prices differently, memory- or FLOP-bound
    depending on the device."""
    registry = KernelRegistry()
    for name, flops, aos in (("scan", 3.0, 0.35), ("probe", 40.0, 0.9)):
        registry.register(KernelSpec(
            name, lambda i, p: {"out": i["in"]},
            flops_per_element=flops, bytes_per_element=12.0, efficiency=0.6,
            layout_efficiency={DataLayout.AOS.value: aos,
                               DataLayout.AOP.value: 0.8}))
    return registry


def fresh_entries(runtime):
    """Every entry of the seconds table, re-evaluated from its key."""
    return {key: runtime.registry.get(key[0]).execution_seconds(
                key[1], LaunchConfig(grid_size=key[2], block_size=key[3]),
                key[4].spec, layout=key[5])
            for key in runtime._seconds}


#: One launch: kernel, nominal count, block size, layout, device index, and
#: a grid of its own (None: one thread per element).
_launch = st.tuples(
    st.sampled_from(["scan", "probe"]),
    st.one_of(st.integers(1, 10**9), st.floats(1.0, 1e9, allow_nan=False),
              st.sampled_from([1000, 1000.0, 2e6])),
    st.sampled_from([32, 100, 256, 1024]), st.sampled_from(LAYOUTS),
    st.integers(0, len(SPECS) - 1), st.sampled_from([None, None, 1, 7]))


class TestMemoisedEqualsFresh:
    @given(st.lists(_launch, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_seconds_launch_and_clock_bit_for_bit(self, launches):
        """Launches that share some of (kernel, count, geometry, device,
        layout) but not all, each made twice on one runtime."""
        env = Environment()
        devices = [GPUDevice(env, gpu, index=i) for i, gpu in enumerate(SPECS)]
        runtime = CUDARuntime(env, devices, kernels())
        took, expected = [], []

        def run_all():
            for name, n, block_size, layout, gpu, grid in launches * 2:
                launch = runtime.launch_config(n, block_size)
                assert launch == LaunchConfig.for_elements(n, block_size)
                assert runtime.launch_config(n, block_size) is launch
                if grid is not None:
                    launch = LaunchConfig(grid, block_size)
                device = devices[gpu]
                expected.append(runtime.registry.get(name).execution_seconds(
                    n, launch, device.spec, layout=layout))
                t0 = env.now
                _, seconds = yield from runtime.kernel_op(
                    device, name, n, launch, {"in": _buf(device)}, {},
                    layout=layout)
                took.append(seconds)
                assert env.now == t0 + seconds

        env.run(until=env.process(run_all()))
        assert took == expected
        assert runtime._seconds == fresh_entries(runtime)
        assert len(runtime._seconds) <= len(launches)

    def test_equal_shapes_on_two_devices_do_not_share_an_entry(self):
        env = Environment()
        devices = [GPUDevice(env, TESLA_C2050, index=0),
                   GPUDevice(env, TESLA_P100, index=1)]
        runtime = CUDARuntime(env, devices, kernels())
        spec = runtime.registry.get("scan")
        launch = runtime.launch_config(1e6)
        seen = {}

        def on(device):
            _, seen[device.index] = yield from runtime.kernel_op(
                device, "scan", 1e6, launch, {"in": _buf(device)}, {})

        env.run(until=env.all_of([env.process(on(d)) for d in devices]))
        assert seen == {d.index: spec.execution_seconds(1e6, launch, d.spec)
                        for d in devices}
        assert seen[0] != seen[1] and len(runtime._seconds) == 2

    def test_the_table_is_dropped_when_full_and_stays_exact(self):
        env = Environment()
        device = GPUDevice(env, TESLA_K20)
        runtime = CUDARuntime(env, [device], kernels())
        spec = runtime.registry.get("scan")
        runtime.priced_max = 4
        counts = [float(1000 + 37 * i) for i in range(11)] * 2
        got = []

        def launches():
            for n in counts:
                launch = runtime.launch_config(n)
                _, seconds = yield from runtime.kernel_op(
                    device, "scan", n, launch, {"in": _buf(device)}, {})
                got.append(seconds)
                assert len(runtime._seconds) <= 4
                assert len(runtime._launches) <= 4

        env.run(until=env.process(launches()))
        assert got == [spec.execution_seconds(
            n, LaunchConfig.for_elements(n), TESLA_K20) for n in counts]


def _buf(device):
    buf = DeviceBuffer(64, device.name)
    buf.data = np.zeros(4)
    return buf


def _small(values):
    """Keeps 5, 12, 19 ... of the hundreds 0, 1, 2 ...: a different share
    of every 100-element block."""
    return values % 100 < values // 100 * 7 + 5


class TestInsideJobs:
    def test_heterogeneous_worker_reads_its_own_device_entries(self):
        """Every launch of a job on a C2050 + P100 worker is charged from its
        pipeline's price table — one entry per (stage, nominal count), first
        of its shape in the runtime's table or found there — and that entry
        is its own device's price."""
        priced = []            # (device, nominal count, seconds) per entry
        charged = Counter()    # (device, seconds) -> launches
        real_price, real_execute = CUDARuntime.price, CUDARuntime.execute

        def price(runtime, device, name, n, launch, layout=None):
            seconds = real_price(runtime, device, name, n, launch, layout)
            assert seconds == runtime.registry.get(name).execution_seconds(
                n, launch, device.spec, layout=layout)
            priced.append((device.spec.name, n, seconds))
            return seconds

        def executed(runtime, device, spec, seconds, *args):
            charged[device.spec.name, seconds] += 1
            return real_execute(runtime, device, spec, seconds, *args)

        cluster = GFlinkCluster(ClusterConfig(
            n_workers=1, cpu=CPUSpec(cores=2),
            gpus_per_worker=("c2050", "p100")))
        with mock.patch.object(CUDARuntime, "price", price), \
                mock.patch.object(CUDARuntime, "execute", executed):
            LinearRegressionWorkload(
                nominal_elements=10e6, real_elements=4000, iterations=2,
                seed=20160816).run(GFlinkSession(cluster), "gpu")
        (manager,) = cluster.gpu_managers()
        assert manager.runtime._seconds == fresh_entries(manager.runtime)
        # Each launch was charged a price its own device's table holds ...
        assert set(charged) <= {(gpu, seconds) for gpu, _, seconds in priced}
        # ... the devices price the same shapes differently ...
        shapes = {gpu: {n for g, n, _ in priced if g == gpu}
                  for gpu in ("Tesla C2050", "Tesla P100")}
        common = shapes["Tesla C2050"] & shapes["Tesla P100"]
        assert common
        for n in common:
            c2050, p100 = ({s for g, m, s in priced if g == gpu and m == n}
                           for gpu in ("Tesla C2050", "Tesla P100"))
            assert c2050.isdisjoint(p100)
        # ... and a shape is priced once per pipeline, not per launch.
        assert sum(charged.values()) > 2 * len(priced)
        assert max(charged.values()) > 10

    def test_mid_chain_fan_out_gets_an_entry_per_nominal_count(self):
        """A chain whose first stage keeps a data-dependent share of each
        block hands the second stage a different nominal count per block."""
        env = Environment()
        registry = KernelRegistry()
        registry.register(KernelSpec(
            "keep_small", lambda i, p: {"out": i["in"][_small(i["in"])]},
            flops_per_element=1.0, efficiency=0.5))
        registry.register(KernelSpec(
            "double", lambda i, p: {"out": i["in"] * 2.0},
            flops_per_element=2.0, efficiency=0.5))
        device = GPUDevice(env, TESLA_C2050)
        runtime = CUDARuntime(env, [device], registry)
        manager = GStreamManager(
            env, [device], CUDAWrapper(env, runtime, CommCosts()),
            GMemoryManager([device], cache_capacity_per_device=1 << 28),
            block_nbytes=800)   # 100 elements a block
        data = np.arange(1000, dtype=np.float64)
        work = GWork(
            execute_name="keep_small+double",
            in_buffers={"in": HBuffer(data, 8, pinned=True)},
            out_buffer=HBuffer([], 8, pinned=True), size=len(data),
            app_id="app", stages=[KernelStage("keep_small"),
                                  KernelStage("double")])
        out = env.run(until=manager.submit(work))
        assert np.array_equal(out.elements, data[_small(data)] * 2.0)
        assert runtime._seconds == fresh_entries(runtime)
        kept = [int(np.count_nonzero(_small(block)))
                for block in np.split(data, 10)]
        assert len(set(kept)) == 10
        priced = sorted((key[0], key[1]) for key in runtime._seconds)
        assert priced == [("double", 100.0 * k / 100) for k in sorted(kept)] \
            + [("keep_small", 100.0)]             # ten equal input blocks
        by_shape = {(key[0], key[1]): seconds
                    for key, seconds in runtime._seconds.items()}
        charged = 0.0
        for k in kept:      # the kernel stage's order: block by block
            charged += by_shape["keep_small", 100.0]
            charged += by_shape["double", 100.0 * k / 100]
        assert device.kernel_seconds == charged

    def test_the_benchmark_job_prices_a_handful_of_shapes(self):
        """``gpu_iterative``: 12 320 device blocks, two block sizes."""
        cluster = GFlinkCluster(ClusterConfig(
            n_workers=10, cpu=CPUSpec(),
            gpus_per_worker=("c2050", "c2050")))
        workload = LinearRegressionWorkload(
            nominal_elements=210e6, real_elements=12_000, seed=20160816)
        workload.prepare(cluster)
        workload.register_kernels(cluster.registry)
        workload.run(GFlinkSession(cluster), "gpu")
        managers = cluster.gpu_managers()
        assert sum(d.kernels_launched
                   for gm in managers for d in gm.devices) == 12_320
        for gm in managers:
            assert 0 < len(gm.runtime._launches) <= 4
            assert 0 < len(gm.runtime._seconds) <= 8
            assert gm.runtime._seconds == fresh_entries(gm.runtime)
