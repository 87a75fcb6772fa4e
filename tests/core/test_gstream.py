"""Tests of the GStreamManager: pipeline execution, caching, stealing."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common import Environment
from repro.core import GFlinkCluster, GFlinkSession, gstream
from repro.core.channels import CommCosts, CommMode, CUDAWrapper
from repro.core.gmemory import EvictionPolicy, GMemoryManager
from repro.core.gpumanager import GPUManagerConfig
from repro.core.gstream import GStreamManager
from repro.core.gwork import GWork
from repro.core.hbuffer import HBuffer
from repro.flink import ClusterConfig, CPUSpec
from repro.gpu import CUDARuntime, GPUDevice, KernelRegistry, KernelSpec, TESLA_C2050


def make_stack(n_gpus=1, streams_per_gpu=2, block_nbytes=1 << 20,
               policy=EvictionPolicy.FIFO, cache_bytes=1 << 28):
    env = Environment()
    registry = KernelRegistry()
    registry.register(KernelSpec(
        "double", lambda i, p: {"out": i["in"] * 2.0},
        flops_per_element=2.0, efficiency=0.5))
    registry.register(KernelSpec(
        "block_sum", lambda i, p: {"out": np.array([float(np.sum(i["in"]))])},
        flops_per_element=1.0, efficiency=0.5))
    registry.register(KernelSpec(
        "axpy", lambda i, p: {"out": i["in"] * p["a"] + i["bias"][0]},
        flops_per_element=2.0, efficiency=0.5))
    devices = [GPUDevice(env, TESLA_C2050, index=i) for i in range(n_gpus)]
    runtime = CUDARuntime(env, devices, registry)
    wrapper = CUDAWrapper(env, runtime, CommCosts())
    gmm = GMemoryManager(devices, cache_capacity_per_device=cache_bytes,
                         policy=policy)
    manager = GStreamManager(env, devices, wrapper, gmm,
                             streams_per_gpu=streams_per_gpu,
                             block_nbytes=block_nbytes)
    return env, manager, devices


def work_for(data, kernel="double", scale=1.0, cache=False, key=("d", 0),
             app="app", extra=None, params=None):
    h = HBuffer(data, element_nbytes=8, scale=scale, off_heap=True,
                pinned=True)
    buffers = {"in": h}
    if extra:
        for name, arr in extra.items():
            buffers[name] = HBuffer(arr, element_nbytes=8, off_heap=True,
                                    pinned=True)
    return GWork(execute_name=kernel, in_buffers=buffers,
                 out_buffer=HBuffer([], 8, off_heap=True, pinned=True),
                 size=len(data) * scale, cache=cache,
                 cache_key=key if cache else None, app_id=app,
                 params=params or {})


def submit_and_wait(env, manager, work):
    done = manager.submit(work)
    return env.run(until=done)


class TestPipelineExecution:
    def test_map_kernel_roundtrip(self):
        env, manager, devices = make_stack()
        data = np.arange(100, dtype=np.float64)
        out = submit_and_wait(env, manager, work_for(data))
        assert np.allclose(out.elements, data * 2.0)
        assert manager.works_completed == 1

    def test_multi_block_output_order(self):
        env, manager, _ = make_stack(block_nbytes=160)  # 20 elements/block
        data = np.arange(100, dtype=np.float64)
        out = submit_and_wait(env, manager, work_for(data))
        assert np.allclose(out.elements, data * 2.0)  # order preserved

    def test_reduce_style_kernel_partials(self):
        env, manager, _ = make_stack(block_nbytes=160)
        data = np.ones(100, dtype=np.float64)
        out = submit_and_wait(env, manager, work_for(data, kernel="block_sum"))
        assert np.sum(out.elements) == pytest.approx(100.0)
        assert len(out.elements) == 5  # one partial per block

    def test_secondary_inputs_and_params(self):
        env, manager, _ = make_stack()
        data = np.arange(10, dtype=np.float64)
        bias = np.array([100.0])
        work = work_for(data, kernel="axpy", extra={"bias": bias},
                        params={"a": 3.0})
        out = submit_and_wait(env, manager, work)
        assert np.allclose(out.elements, data * 3.0 + 100.0)

    def test_device_memory_freed_after_uncached_work(self):
        env, manager, devices = make_stack()
        data = np.arange(1000, dtype=np.float64)
        submit_and_wait(env, manager, work_for(data))
        assert devices[0].memory.allocated == 0

    def test_kernel_error_propagates_via_completion(self):
        env, manager, _ = make_stack()
        data = np.arange(10, dtype=np.float64)
        work = work_for(data, kernel="nonexistent")
        done = manager.submit(work)
        with pytest.raises(Exception):
            env.run(until=done)

    def test_failed_work_frees_only_its_own_buffers(self):
        """A GWork that fails mid-pipeline reclaims what *it* allocated; the
        sibling stream's in-flight buffers on the same device are not its
        to free (that was a double free in the healthy GWork later)."""
        env, manager, devices = make_stack(block_nbytes=160)  # 20 per block
        calls = []

        def flaky(inputs, params):
            calls.append(len(calls))
            if len(calls) == 4:
                raise RuntimeError("kernel fault on the 4th block")
            return {"out": inputs["in"] + 1.0}

        manager.wrapper.runtime.registry.register(KernelSpec(
            "flaky", flaky, flops_per_element=2.0, efficiency=0.5))
        data = np.arange(400, dtype=np.float64)
        failing = manager.submit(work_for(data, kernel="flaky"))
        healthy = manager.submit(work_for(data))
        env.run(until=env.all_of([healthy]))
        assert np.allclose(healthy.value.elements, data * 2.0)
        assert failing.triggered and not failing.ok
        assert isinstance(failing.value, RuntimeError)
        env.run()
        memory = devices[0].memory
        assert memory.allocated == 0
        assert memory.alloc_count == memory.free_count

    def test_nominal_scale_drives_kernel_time(self):
        def kernel_secs(scale):
            env, manager, devices = make_stack()
            data = np.arange(1000, dtype=np.float64)
            submit_and_wait(env, manager, work_for(data, scale=scale))
            return devices[0].kernel_seconds

        # 1e5x more nominal elements -> much more kernel time (the fixed
        # launch overhead keeps the ratio below 1e5).
        assert kernel_secs(1e5) > 50 * kernel_secs(1.0)


class TestPipelineOverlap:
    def test_pipelining_beats_serial_stages(self):
        # Compute-heavy kernel whose total K time rivals the transfers: the
        # pipeline must hide most of the kernel time behind the copies.
        env, manager, devices = make_stack(block_nbytes=1 << 20)
        manager.wrapper.runtime.registry.register(KernelSpec(
            "heavy", lambda i, p: {"out": i["in"] * 2.0},
            flops_per_element=2700.0, efficiency=0.5))
        n = 200_000
        data = np.arange(n, dtype=np.float64)
        scale = 50.0  # nominal 10M elements = 80 MB in, 80 MB out
        t0 = env.now
        submit_and_wait(env, manager,
                        work_for(data, kernel="heavy", scale=scale))
        wall = env.now - t0
        nbytes = n * scale * 8
        h2d = nbytes / TESLA_C2050.pcie_effective_bps
        d2h = nbytes / TESLA_C2050.pcie_effective_bps
        kern = devices[0].kernel_seconds
        serial = h2d + d2h + kern
        # The kernel time is comparable to the total wire time...
        assert kern == pytest.approx(h2d + d2h, rel=0.1)
        # ...and the pipeline hides most of it.
        assert wall < serial * 0.8
        # C2050 has one copy engine: H2D and D2H cannot overlap each other,
        # so wall can never beat the total wire time.
        assert wall > h2d + d2h

    def test_full_duplex_device_overlaps_both_directions(self):
        # Same work on a 2-copy-engine device: D2H of block k-1 overlaps
        # H2D of block k+1, so wall time approaches max(h2d, d2h) + kernel
        # remainder instead of their sum.
        from repro.gpu import TESLA_K20
        env = Environment()
        registry = KernelRegistry()
        registry.register(KernelSpec(
            "light", lambda i, p: {"out": i["in"]}, flops_per_element=0.1,
            efficiency=1.0))
        devices = [GPUDevice(env, TESLA_K20, index=0)]
        runtime = CUDARuntime(env, devices, registry)
        wrapper = CUDAWrapper(env, runtime, CommCosts())
        gmm = GMemoryManager(devices, cache_capacity_per_device=1 << 28)
        manager = GStreamManager(env, devices, wrapper, gmm,
                                 streams_per_gpu=1, block_nbytes=1 << 20)
        n, scale = 200_000, 50.0
        data = np.arange(n, dtype=np.float64)
        submit_and_wait(env, manager,
                        work_for(data, kernel="light", scale=scale))
        nbytes = n * scale * 8
        one_way = nbytes / TESLA_K20.pcie_effective_bps
        assert env.now < 1.5 * one_way  # far below the 2x a half-duplex pays


class TestCachingBehaviour:
    def test_second_submission_skips_h2d(self):
        env, manager, devices = make_stack()
        data = np.arange(10_000, dtype=np.float64)
        submit_and_wait(env, manager,
                        work_for(data, cache=True, key=("m", 0)))
        h2d_after_first = devices[0].h2d_bytes
        submit_and_wait(env, manager,
                        work_for(data, cache=True, key=("m", 0)))
        assert devices[0].h2d_bytes == h2d_after_first  # no new input bytes

    def test_cache_speeds_up_iterations(self):
        def iteration_times(cache):
            env, manager, _ = make_stack()
            data = np.arange(100_000, dtype=np.float64)
            times = []
            for i in range(3):
                t0 = env.now
                submit_and_wait(env, manager,
                                work_for(data, scale=100.0, cache=cache,
                                         key=("m", 0)))
                times.append(env.now - t0)
            return times

        cached = iteration_times(True)
        uncached = iteration_times(False)
        assert cached[1] < uncached[1]
        assert cached[1] < cached[0]  # first iteration pays the upload

    def test_no_evict_policy_when_working_set_exceeds_region(self):
        # Region fits half the data: FIFO would thrash; NO_EVICT keeps the
        # first half resident forever.
        data = np.arange(10_000, dtype=np.float64)  # 80 KB
        env, manager, devices = make_stack(policy=EvictionPolicy.NO_EVICT,
                                           cache_bytes=40_000,
                                           block_nbytes=8_000)
        submit_and_wait(env, manager, work_for(data, cache=True, key=("m", 0)))
        region = manager.gmm.region("app", 0)
        assert region.evictions == 0
        assert region.used <= 40_000

    def test_locality_routes_to_cached_device(self):
        env, manager, devices = make_stack(n_gpus=2, streams_per_gpu=1)
        data = np.arange(10_000, dtype=np.float64)
        out = submit_and_wait(env, manager,
                              work_for(data, cache=True, key=("m", 0)))
        first_device = devices[0].h2d_bytes > 0
        gid = 0 if first_device else 1
        # Re-submission must land on the device that cached the data.
        work2 = work_for(data, cache=True, key=("m", 0))
        submit_and_wait(env, manager, work2)
        assert work2.assigned_device == gid


class TestWorkStealingIntegration:
    def test_queued_work_drains_across_gpus(self):
        env, manager, devices = make_stack(n_gpus=2, streams_per_gpu=1)
        data = np.arange(50_000, dtype=np.float64)
        events = [manager.submit(work_for(data, scale=100.0, key=None))
                  for _ in range(8)]
        env.run(until=env.all_of(events))
        assert manager.works_completed == 8
        assert manager.pending == 0
        # Both GPUs participated.
        assert devices[0].kernels_launched > 0
        assert devices[1].kernels_launched > 0

    def test_all_streams_idle_after_drain(self):
        env, manager, _ = make_stack(n_gpus=2, streams_per_gpu=2)
        data = np.arange(1000, dtype=np.float64)
        events = [manager.submit(work_for(data)) for _ in range(5)]
        env.run(until=env.all_of(events))
        env.run()
        assert manager.idle_stream_count() == 4


class TestFusedLaunchCharge:
    """A temporary output's ``cudaMalloc`` and the launch's JNI redirect are
    one fused charge, ``timeout(jni, then=(driver, jni))``."""

    @given(st.floats(1e-9, 1e-3), st.floats(1e-9, 1e-3), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_launch_starts_where_malloc_then_redirect_ended(
            self, jni, driver, n_blocks):
        env, manager, devices = make_stack(block_nbytes=160)  # 20 per block
        wrapper = manager.wrapper
        wrapper.costs = CommCosts(jni_call_s=jni)
        wrapper.runtime.alloc_overhead_s = driver
        charged, launched = [], []
        real_timeout, real_serve = Environment.timeout, gstream.serve

        def timeout(env, delay, value=None, then=0.0):
            if isinstance(then, tuple):      # the fused malloc + redirect
                charged.append(env.now)
            return real_timeout(env, delay, value, then)

        def serve(env, first, second, delay, then=0.0):
            if first is devices[0].compute:
                launched.append(env.now)
            return real_serve(env, first, second, delay, then)

        with mock.patch.object(Environment, "timeout", timeout), \
                mock.patch.object(gstream, "serve", serve):
            submit_and_wait(env, manager,
                            work_for(np.arange(20.0 * n_blocks)))
        assert len(charged) == len(launched) == n_blocks
        for start, launch in zip(charged, launched):
            # The separate charges: cuda_malloc's fused JNI + driver, then
            # the launch's redirect as a timeout of its own.
            ref = Environment(initial_time=start)
            separate = CUDAWrapper(ref, wrapper.runtime, wrapper.costs)

            def malloc_then_redirect():
                yield from separate.cuda_malloc(GPUDevice(ref, TESLA_C2050),
                                                8)
                yield ref.timeout(jni)

            ref.run(until=ref.process(malloc_then_redirect()))
            assert ref.now == launch
        # Per block, as with the separate charges: H2D's malloc and copy,
        # the output's malloc and the launch, the input's free, the D2H
        # copy and the output's free.
        assert wrapper.jni_calls == 7 * n_blocks


class TestCacheEntriesInFlight:
    """A cache entry is pinned while its block is in flight, and a failed
    GWork leaves no entry that never received its data."""

    @pytest.mark.parametrize("policy", ["fifo", "lru"])
    def test_region_with_room_for_one_block_evicts_none_in_flight(
            self, policy):
        cluster = GFlinkCluster(
            ClusterConfig(n_workers=1, cpu=CPUSpec(cores=2),
                          gpus_per_worker=("c2050",)),
            gpu_config=GPUManagerConfig(cache_bytes_per_device=8 << 20,
                                        cache_policy=policy))
        session = GFlinkSession(cluster)
        seen = []

        def double(inputs, params):
            seen.append(inputs["in"] is None)
            return {"out": inputs["in"] * 2.0}

        session.register_kernel(KernelSpec(
            "double", double, flops_per_element=1.0, efficiency=0.5))
        data = np.arange(8000.0)
        result = session.from_collection(
            data, element_nbytes=8, scale=2e4, parallelism=1) \
            .gpu_map_partition("double", cache=True).collect()
        assert np.array_equal(np.asarray(result.value), data * 2.0)
        assert len(seen) > 100 and not any(seen)
        assert result.metrics.retries == 0
        (manager,) = cluster.gpu_managers()
        # Room was made only from consumed blocks, and some had to wait
        # for none: those took a temporary.
        (stats,) = manager.gmm.cache_stats().values()
        assert 0 < stats.evictions < len(seen)

    def test_a_secondary_entry_still_uploading_is_not_a_hit(self):
        env, manager, _ = make_stack()
        region = manager.gmm.region("app", 0)
        region.try_insert((("d", 0), "bias"), 8)     # data not landed yet
        data = np.arange(100, dtype=np.float64)
        out = submit_and_wait(env, manager, work_for(
            data, kernel="axpy", cache=True, extra={"bias": np.array([5.0])},
            params={"a": 3.0}))
        assert np.array_equal(out.elements, data * 3.0 + 5.0)

    def test_cached_retry_after_a_failed_upload_succeeds(self):
        from tests.core.test_gpu_fault_tolerance import (FlakyKernel,
                                                         make_session)
        session = make_session(max_retries=3)
        session.register_kernel(KernelSpec(
            "flaky", FlakyKernel(1), flops_per_element=1.0, efficiency=0.5))
        data = np.arange(4000.0)
        result = session.from_collection(
            data, element_nbytes=8, scale=1e4, parallelism=1) \
            .gpu_map_partition("flaky", cache=True).collect()
        assert np.array_equal(np.asarray(result.value), data * 2.0)
        assert result.metrics.retries == 1
        (manager,) = session.cluster.gpu_managers()
        # Nothing the failed attempt inserted is left empty or pinned.
        for region in manager.gmm._regions.values():
            for entry in region._entries.values():
                assert entry.buffer.data is not None
                assert not entry.pinned_by
