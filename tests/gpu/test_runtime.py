"""Tests for streams, kernels and the CUDA runtime: semantics and timing."""

import numpy as np
import pytest

from repro.common import Environment
from repro.common.errors import ConfigError, KernelError
from repro.gpu import (
    CUDARuntime,
    GPUDevice,
    KernelRegistry,
    KernelSpec,
    LaunchConfig,
    TESLA_C2050,
    TESLA_K20,
    TESLA_P100,
)
from repro.gpu.memory import HostBuffer


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def registry():
    reg = KernelRegistry()
    reg.register(KernelSpec(
        name="scale2", flops_per_element=1.0, efficiency=1.0,
        fn=lambda inputs, params: {"out": inputs["in"] * 2.0}))
    return reg


@pytest.fixture
def device(env):
    return GPUDevice(env, TESLA_C2050)


@pytest.fixture
def runtime(env, device, registry):
    return CUDARuntime(env, [device], registry)


def run(env, gen):
    return env.run(until=env.process(gen))


class TestLaunchConfig:
    def test_for_elements_rounds_up(self):
        cfg = LaunchConfig.for_elements(1000, block_size=256)
        assert cfg.grid_size == 4
        assert cfg.total_threads == 1024

    def test_block_size_limit(self):
        with pytest.raises(ConfigError):
            LaunchConfig(grid_size=1, block_size=2048)


class TestKernelCostModel:
    def test_flop_bound_time(self):
        spec = KernelSpec("k", lambda i, p: {}, flops_per_element=100.0,
                          efficiency=0.5)
        launch = LaunchConfig.for_elements(10**7)
        t = spec.execution_seconds(1e7, launch, TESLA_C2050)
        expected = TESLA_C2050.kernel_launch_s + 1e7 * 100.0 / (1030e9 * 0.5)
        assert t == pytest.approx(expected)

    def test_memory_bound_time(self):
        spec = KernelSpec("k", lambda i, p: {}, flops_per_element=0.1,
                          bytes_per_element=100.0, efficiency=1.0)
        launch = LaunchConfig.for_elements(10**7)
        t = spec.execution_seconds(1e7, launch, TESLA_C2050)
        expected = TESLA_C2050.kernel_launch_s + 1e9 / 144.0e9
        assert t == pytest.approx(expected)

    def test_small_launch_occupancy_penalty(self):
        spec = KernelSpec("k", lambda i, p: {}, flops_per_element=100.0,
                          efficiency=1.0)
        big = spec.execution_seconds(1e7, LaunchConfig.for_elements(1e7),
                                     TESLA_P100)
        # Per-element time is much worse when the launch can't fill the GPU.
        small = spec.execution_seconds(1e3, LaunchConfig.for_elements(1e3),
                                       TESLA_P100)
        assert small / 1e3 > big / 1e7

    def test_faster_gpu_is_faster(self):
        spec = KernelSpec("k", lambda i, p: {}, flops_per_element=50.0,
                          efficiency=0.5)
        launch = LaunchConfig.for_elements(1e7)
        assert (spec.execution_seconds(1e7, launch, TESLA_P100)
                < spec.execution_seconds(1e7, launch, TESLA_K20)
                < spec.execution_seconds(1e7, launch, TESLA_C2050))


class TestKernelRegistry:
    def test_duplicate_rejected(self, registry):
        with pytest.raises(ConfigError):
            registry.register(KernelSpec("scale2", lambda i, p: {}, 1.0))

    def test_unknown_kernel_raises(self, registry):
        with pytest.raises(KernelError):
            registry.get("nope")


class TestRuntimeTransfers:
    def test_sync_h2d_moves_data_and_charges_time(self, env, device, runtime):
        data = np.arange(8, dtype=np.float32)
        host = HostBuffer(1_000_000, data=data, pinned=True)

        def proc():
            dev = yield from runtime.malloc(device, 1_000_000)
            yield from runtime.memcpy_h2d(device, dev, host)
            return dev

        dev = run(env, proc())
        assert np.array_equal(dev.data, data)
        wire = 1_000_000 / TESLA_C2050.pcie_effective_bps
        assert env.now == pytest.approx(
            CUDARuntime.alloc_overhead_s + TESLA_C2050.pcie_latency_s + wire)
        assert device.h2d_bytes == 1_000_000

    def test_unpinned_transfer_pays_staging(self, env, device, runtime):
        def copy(pinned):
            host = HostBuffer(10_000_000, data=None, pinned=pinned)
            start = env.now

            def proc():
                dev = yield from runtime.malloc(device, 10_000_000)
                yield from runtime.memcpy_h2d(device, dev, host)

            run(env, proc())
            return env.now - start

        pinned_t = copy(True)
        unpinned_t = copy(False)
        assert unpinned_t > pinned_t
        assert unpinned_t - pinned_t == pytest.approx(
            10_000_000 / CUDARuntime.pageable_staging_bps)

    def test_d2h_roundtrip(self, env, device, runtime):
        data = np.arange(4, dtype=np.float64)
        host_in = HostBuffer(32, data=data, pinned=True)
        host_out = HostBuffer(32, pinned=True)
        stream = runtime.stream_create(device)

        def proc():
            dev = yield from runtime.malloc(device, 32)
            yield from runtime.memcpy_h2d(device, dev, host_in)
            yield runtime.memcpy_d2h_async(device, stream, host_out, dev)

        run(env, proc())
        assert np.array_equal(host_out.data, data)
        assert device.d2h_bytes == 32


class TestDuplexing:
    def _bidirectional_time(self, spec):
        env = Environment()
        device = GPUDevice(env, spec)
        runtime = CUDARuntime(env, [device], KernelRegistry())
        nbytes = int(1e8)
        h_in = HostBuffer(nbytes, pinned=True)
        h_out = HostBuffer(nbytes, pinned=True)

        def proc():
            dev1 = yield from runtime.malloc(device, nbytes)
            dev2 = yield from runtime.malloc(device, nbytes)
            s1 = runtime.stream_create(device)
            s2 = runtime.stream_create(device)
            e1 = runtime.memcpy_h2d_async(device, s1, dev1, h_in)
            e2 = runtime.memcpy_d2h_async(device, s2, h_out, dev2)
            yield env.all_of([e1, e2])

        env.run(until=env.process(proc()))
        return env.now

    def test_two_engines_full_duplex(self):
        # K20 (2 engines) overlaps H2D and D2H; C2050 (1 engine) cannot.
        wire_c2050 = 1e8 / TESLA_C2050.pcie_effective_bps
        t_c2050 = self._bidirectional_time(TESLA_C2050)
        assert t_c2050 > 2 * wire_c2050  # serialized on one engine

        wire_k20 = 1e8 / TESLA_K20.pcie_effective_bps
        t_k20 = self._bidirectional_time(TESLA_K20)
        assert t_k20 < 1.5 * wire_k20  # overlapped on two engines


class TestStreamsAndKernels:
    def test_kernel_computes_and_charges(self, env, device, runtime):
        data = np.arange(8, dtype=np.float64)
        host = HostBuffer(64, data=data, pinned=True)
        out_host = HostBuffer(64, pinned=True)
        stream = runtime.stream_create(device)

        def proc():
            d_in = yield from runtime.malloc(device, 64)
            d_out = yield from runtime.malloc(device, 64)
            yield from runtime.memcpy_h2d(device, d_in, host)
            runtime.launch_kernel(
                device, stream, "scale2", n_elements=8,
                launch=LaunchConfig.for_elements(8),
                inputs={"in": d_in}, outputs={"out": d_out})
            runtime.memcpy_d2h_async(device, stream, out_host, d_out)
            yield runtime.stream_synchronize(stream)

        run(env, proc())
        assert np.array_equal(out_host.data, data * 2.0)
        assert device.kernels_launched == 1
        assert device.kernel_seconds > 0

    def test_same_stream_ops_serialize_in_order(self, env, device, runtime):
        stream = runtime.stream_create(device)
        order = []

        def make_op(tag, dur):
            def op():
                yield env.timeout(dur)
                order.append((tag, env.now))
            return op

        stream.enqueue(make_op("a", 2.0))
        stream.enqueue(make_op("b", 1.0))
        env.run()
        assert order == [("a", 2.0), ("b", 3.0)]

    def test_different_streams_overlap(self, env, device, runtime):
        s1 = runtime.stream_create(device)
        s2 = runtime.stream_create(device)
        done = []

        def make_op(tag):
            def op():
                yield env.timeout(1.0)
                done.append((tag, env.now))
            return op

        s1.enqueue(make_op("s1"))
        s2.enqueue(make_op("s2"))
        env.run()
        assert [t for _, t in done] == [1.0, 1.0]

    def test_kernels_serialize_on_compute_engine(self, env, device, runtime):
        # Two streams, two kernels: copies could overlap, but compute is
        # exclusive, so total kernel wall time is the sum.
        s1 = runtime.stream_create(device)
        s2 = runtime.stream_create(device)
        n = 1e8
        launch = LaunchConfig.for_elements(n)
        e1 = runtime.launch_kernel(device, s1, "scale2", n, launch,
                                   inputs={"in": _dummy_buf(runtime, device)},
                                   outputs={})
        e2 = runtime.launch_kernel(device, s2, "scale2", n, launch,
                                   inputs={"in": _dummy_buf(runtime, device)},
                                   outputs={})
        env.run()
        single = TESLA_C2050.kernel_launch_s + n * 1.0 / (1030e9 * 1.0)
        assert env.now == pytest.approx(2 * single, rel=1e-3)

    def test_missing_kernel_output_raises(self, env, device, runtime):
        stream = runtime.stream_create(device)
        d_out = _dummy_buf(runtime, device)
        runtime.launch_kernel(device, stream, "scale2", 4,
                              LaunchConfig.for_elements(4),
                              inputs={"in": _dummy_buf(runtime, device)},
                              outputs={"missing": d_out})
        with pytest.raises(KernelError):
            env.run()


def _dummy_buf(runtime, device):
    data = np.zeros(4)
    buf = device.memory.alloc(32)
    buf.data = data
    return buf

