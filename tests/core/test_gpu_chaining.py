"""GPU operator chaining: fused GWorks, device-resident intermediates.

Covers the three layers of the feature:

* GStream — multi-stage kernel execution, cached-stage resume, spilling
  oversized intermediates into the cache region, per-stage timings;
* optimizer — detection of maximal fusable GPU runs and the breaks
  (persist, fan-out, explicit parallelism, incompatible comm modes);
* end to end — fused results byte-identical to unfused, PCIe traffic
  reduced, chain intermediates reused across iterative jobs.
"""

import numpy as np
import pytest

from repro.common import Environment
from repro.common.errors import ConfigError
from repro.core import GFlinkCluster, GFlinkSession
from repro.core.channels import CommCosts, CommMode, CUDAWrapper
from repro.core.gdst import FusedGpuOp, GpuMapPartitionOp
from repro.core.gmemory import CacheRegion, EvictionPolicy, GMemoryManager
from repro.core.gstream import GStreamManager
from repro.core.gwork import GWork, KernelStage, STAGE_OUT
from repro.core.hbuffer import HBuffer
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.flink.optimizer import apply_chaining
from repro.flink.plan import CollectSink, topological_order
from repro.gpu import (
    CUDARuntime,
    GPUDevice,
    GPUSpec,
    KernelRegistry,
    KernelSpec,
    TESLA_C2050,
)

MiB = 1 << 20


def make_stack(n_gpus=1, streams_per_gpu=2, block_nbytes=1 << 20,
               policy=EvictionPolicy.FIFO, cache_bytes=1 << 28,
               spec=TESLA_C2050):
    env = Environment()
    registry = KernelRegistry()
    registry.register(KernelSpec(
        "double", lambda i, p: {"out": i["in"] * 2.0},
        flops_per_element=2.0, efficiency=0.5))
    registry.register(KernelSpec(
        "inc", lambda i, p: {"out": i["in"] + 1.0},
        flops_per_element=1.0, efficiency=0.5))
    registry.register(KernelSpec(
        "halve_count", lambda i, p: {"out": i["in"][::2]},
        flops_per_element=1.0, efficiency=0.5))
    devices = [GPUDevice(env, spec, index=i) for i in range(n_gpus)]
    runtime = CUDARuntime(env, devices, registry)
    wrapper = CUDAWrapper(env, runtime, CommCosts())
    gmm = GMemoryManager(devices, cache_capacity_per_device=cache_bytes,
                         policy=policy)
    manager = GStreamManager(env, devices, wrapper, gmm,
                             streams_per_gpu=streams_per_gpu,
                             block_nbytes=block_nbytes)
    return env, manager, devices


def staged_work(data, stage_specs, scale=1.0, cache=False, key=("pri", 0),
                primary_cached=True, app="app"):
    """A chained GWork; ``stage_specs`` is a list of KernelStage kwargs."""
    h = HBuffer(data, element_nbytes=8, scale=scale, off_heap=True,
                pinned=True)
    stages = [KernelStage(**kw) for kw in stage_specs]
    return GWork(execute_name="+".join(s.execute_name for s in stages),
                 in_buffers={"in": h},
                 out_buffer=HBuffer([], 8, off_heap=True, pinned=True),
                 size=len(data) * scale, cache=cache,
                 cache_key=key if cache else None, app_id=app,
                 stages=stages, primary_cached=primary_cached)


def submit_and_wait(env, manager, work):
    done = manager.submit(work)
    return env.run(until=done)


class TestStagedPipeline:
    def test_two_stage_chain_correct(self):
        env, manager, _ = make_stack()
        data = np.arange(100, dtype=np.float64)
        work = staged_work(data, [{"execute_name": "double"},
                                  {"execute_name": "inc"}])
        out = submit_and_wait(env, manager, work)
        assert np.allclose(out.elements, data * 2.0 + 1.0)

    def test_multi_block_chain_order_preserved(self):
        env, manager, _ = make_stack(block_nbytes=160)  # 20 elems/block
        data = np.arange(100, dtype=np.float64)
        work = staged_work(data, [{"execute_name": "double"},
                                  {"execute_name": "double"},
                                  {"execute_name": "inc"}])
        out = submit_and_wait(env, manager, work)
        assert np.allclose(out.elements, data * 4.0 + 1.0)

    def test_intermediates_never_cross_pcie(self):
        """A fused N-deep chain moves input + final output only — the
        unfused equivalent pays a D2H+H2D round-trip per boundary."""
        env, manager, devices = make_stack()
        data = np.arange(1000, dtype=np.float64)
        work = staged_work(data, [{"execute_name": "double"}] * 4)
        submit_and_wait(env, manager, work)
        fused_pcie = devices[0].h2d_bytes + devices[0].d2h_bytes
        assert fused_pcie == 2 * data.nbytes

        env2, manager2, devices2 = make_stack()
        current = data
        for _ in range(4):
            out = submit_and_wait(
                env2, manager2,
                staged_work(current, [{"execute_name": "double"}]))
            current = np.asarray(out.elements)
        unfused_pcie = devices2[0].h2d_bytes + devices2[0].d2h_bytes
        assert unfused_pcie == 8 * data.nbytes
        assert np.allclose(current, data * 16.0)

    def test_per_stage_seconds_recorded(self):
        env, manager, _ = make_stack()
        data = np.arange(500, dtype=np.float64)
        work = staged_work(data, [{"execute_name": "double"},
                                  {"execute_name": "inc"}])
        submit_and_wait(env, manager, work)
        assert set(work.stage_seconds) == {"double", "inc"}
        assert all(s > 0 for s in work.stage_seconds.values())

    def test_mid_chain_count_change(self):
        """A count-changing middle stage re-scales the nominal stream."""
        env, manager, _ = make_stack()
        data = np.arange(64, dtype=np.float64)
        work = staged_work(data, [{"execute_name": "halve_count"},
                                  {"execute_name": "double"}],
                           scale=100.0)
        out = submit_and_wait(env, manager, work)
        assert np.allclose(out.elements, data[::2] * 2.0)

    def test_single_stage_work_unchanged(self):
        """A plain GWork is the one-stage special case: same results, same
        transfer accounting as the seed pipeline."""
        env, manager, devices = make_stack()
        data = np.arange(256, dtype=np.float64)
        h = HBuffer(data, element_nbytes=8, off_heap=True, pinned=True)
        work = GWork(execute_name="double", in_buffers={"in": h},
                     out_buffer=HBuffer([], 8, off_heap=True, pinned=True),
                     size=len(data), app_id="app")
        out = submit_and_wait(env, manager, work)
        assert np.allclose(out.elements, data * 2.0)
        assert devices[0].h2d_bytes + devices[0].d2h_bytes == 2 * data.nbytes


class TestCachedStageResume:
    def _cached_chain_work(self, data):
        return staged_work(
            data,
            [{"execute_name": "double", "cache_output": True,
              "cache_key": ("mid", 0)},
             {"execute_name": "inc"}],
            cache=True, key=("pri", 0), primary_cached=False)

    def test_second_submission_skips_prefix(self):
        env, manager, devices = make_stack(block_nbytes=160)
        data = np.arange(100, dtype=np.float64)

        out1 = submit_and_wait(env, manager, self._cached_chain_work(data))
        kernels_first = devices[0].kernels_launched
        h2d_first = devices[0].h2d_bytes

        out2 = submit_and_wait(env, manager, self._cached_chain_work(data))
        # Resume from the cached stage output: no upload, only the second
        # stage's kernels run again.
        assert devices[0].h2d_bytes == h2d_first
        assert devices[0].kernels_launched == kernels_first + 5  # 5 blocks
        assert np.allclose(out2.elements, out1.elements)
        assert np.allclose(out2.elements, data * 2.0 + 1.0)

    def test_locality_routes_to_device_holding_intermediates(self):
        env, manager, _ = make_stack(n_gpus=2, block_nbytes=160)
        data = np.arange(100, dtype=np.float64)
        work1 = self._cached_chain_work(data)
        submit_and_wait(env, manager, work1)
        work2 = self._cached_chain_work(data)
        submit_and_wait(env, manager, work2)
        assert work2.assigned_device == work1.assigned_device

    def test_stage_keys_in_locality_keys(self):
        env, manager, _ = make_stack(block_nbytes=160)
        work = self._cached_chain_work(np.arange(100, dtype=np.float64))
        keys = manager._locality_keys(work)
        assert (("mid", 0), STAGE_OUT, 0) in keys
        # primary_cached=False: raw input blocks are not locality.
        assert (("pri", 0), "in", 0) not in keys


class TestSpill:
    TINY = GPUSpec(name="tiny", sm_count=2, sp_gflops=100.0,
                   mem_bytes=4 * MiB, mem_bandwidth_bps=20.0e9,
                   pcie_effective_bps=3.0e9, pcie_latency_s=1.8e-6,
                   copy_engines=1, kernel_launch_s=5e-6,
                   max_threads_resident=2 * 1024)

    def test_oversized_intermediate_spills_to_cache_region(self):
        """2 MiB region + 1 MiB cached input leave < 2 MiB free: a 2 MiB
        stage output must borrow region room instead of failing."""
        env, manager, devices = make_stack(
            spec=self.TINY, cache_bytes=2 * MiB, block_nbytes=1 * MiB)
        data = np.arange(128, dtype=np.float64)  # 1 MiB nominal at x1024
        work = staged_work(
            data,
            [{"execute_name": "double", "out_element_nbytes": 16.0},
             {"execute_name": "double", "out_element_nbytes": 16.0},
             {"execute_name": "inc", "out_element_nbytes": 8.0}],
            scale=1024.0, cache=True, key=("pri", 0))
        out = submit_and_wait(env, manager, work)
        assert np.allclose(out.elements, data * 4.0 + 1.0)
        region = manager.gmm.region("app", 0)
        assert region.spills >= 1
        # Spilled intermediates were returned: only durable cache entries
        # remain in the region.
        assert all(not (isinstance(k, tuple) and k and k[0] == "spill")
                   for k in region._entries)

    def test_without_region_oversized_chain_fails(self):
        env, manager, _ = make_stack(
            spec=self.TINY, cache_bytes=2 * MiB, block_nbytes=1 * MiB)
        # Reserve the region for another app so free memory is 2 MiB but
        # this work (cache=False, no region of its own) cannot spill.
        manager.gmm.region("other-app", 0)
        data = np.arange(128, dtype=np.float64)
        work = staged_work(
            data,
            [{"execute_name": "double", "out_element_nbytes": 16.0},
             {"execute_name": "double", "out_element_nbytes": 16.0}],
            scale=1024.0, cache=False)
        with pytest.raises(Exception):
            submit_and_wait(env, manager, work)


class TestLruPolicy:
    def _region(self, capacity=3):
        env = Environment()
        device = GPUDevice(env, TESLA_C2050, index=0)
        return CacheRegion(device, capacity, EvictionPolicy.LRU)

    def test_hit_refreshes_recency(self):
        region = self._region()
        region.try_insert("a", 1)
        region.try_insert("b", 1)
        region.try_insert("c", 1)
        region.lookup("a")              # a becomes most-recent
        region.try_insert("d", 1)       # evicts b, the LRU entry
        assert region.contains("a")
        assert not region.contains("b")
        assert region.contains("c") and region.contains("d")

    def test_fifo_ignores_recency(self):
        env = Environment()
        device = GPUDevice(env, TESLA_C2050, index=0)
        region = CacheRegion(device, 3, EvictionPolicy.FIFO)
        region.try_insert("a", 1)
        region.try_insert("b", 1)
        region.try_insert("c", 1)
        region.lookup("a")
        region.try_insert("d", 1)       # FIFO: evicts a despite the hit
        assert not region.contains("a")
        assert region.contains("b")

    def test_cache_policy_config_flag(self):
        from repro.core.gpumanager import GPUManagerConfig
        assert (GPUManagerConfig(cache_policy="lru").resolved_policy()
                is EvictionPolicy.LRU)
        assert (GPUManagerConfig().resolved_policy()
                is EvictionPolicy.FIFO)
        with pytest.raises(ValueError):
            GPUManagerConfig(cache_policy="bogus").resolved_policy()


# -- plan-level: optimizer detection -------------------------------------------

def make_session(fused=True, gpus=("c2050",), cores=2,
                 gpu_cache_bytes=None):
    flink = FlinkConfig(enable_gpu_chaining=fused)
    config = ClusterConfig(n_workers=1, cpu=CPUSpec(cores=cores),
                           gpus_per_worker=tuple(gpus), flink=flink)
    cluster = GFlinkCluster(config)
    session = GFlinkSession(cluster)
    session.register_kernel(KernelSpec(
        "double", lambda i, p: {"out": i["in"] * 2.0},
        flops_per_element=2.0, efficiency=0.5))
    session.register_kernel(KernelSpec(
        "inc", lambda i, p: {"out": i["in"] + 1.0},
        flops_per_element=1.0, efficiency=0.5))
    session.register_kernel(KernelSpec(
        "keep_small", lambda i, p: {"out": i["in"][i["in"] < p["limit"]]},
        flops_per_element=1.0, efficiency=0.5))
    return cluster, session


def fused_ops_of(sink):
    return [op for op in topological_order([sink])
            if isinstance(op, FusedGpuOp)]


class TestGpuChainOptimizer:
    def test_linear_gpu_run_fused(self):
        _, session = make_session()
        ds = session.from_collection(np.arange(16.0), element_nbytes=8)
        chain = ds.gpu_map("double").gpu_map("inc").gpu_map("double")
        sink = CollectSink(chain.op)
        apply_chaining([sink])
        fused = fused_ops_of(sink)
        assert len(fused) == 1
        assert len(fused[0].stages) == 3
        assert [s.kernel_name for s in fused[0].stages] == \
            ["double", "inc", "double"]

    def test_single_gpu_op_not_fused(self):
        _, session = make_session()
        ds = session.from_collection(np.arange(16.0), element_nbytes=8)
        sink = CollectSink(ds.gpu_map("double").op)
        apply_chaining([sink])
        assert fused_ops_of(sink) == []

    def test_persisted_member_breaks_chain(self):
        _, session = make_session()
        ds = session.from_collection(np.arange(16.0), element_nbytes=8)
        mid = ds.gpu_map("double").gpu_map("inc").gpu_map("double")
        mid.persist()  # user-visible materialization: must stay unfused
        tail = mid.gpu_map("inc").gpu_map("double")
        sink = CollectSink(tail.op)
        apply_chaining([sink])
        fused = fused_ops_of(sink)
        # Two sub-runs fuse on either side of the persisted boundary.
        assert len(fused) == 2
        assert all(len(f.stages) == 2 for f in fused)
        assert any(op is mid.op for op in topological_order([sink]))

    def test_multi_consumer_breaks_chain(self):
        _, session = make_session()
        ds = session.from_collection(np.arange(16.0), element_nbytes=8)
        shared = ds.gpu_map("double")
        left = shared.gpu_map("inc")
        right = shared.gpu_map("double")
        sinks = [CollectSink(left.op), CollectSink(right.op)]
        apply_chaining(sinks)
        # `shared` feeds two consumers: nothing may fuse across it, and
        # the single-op branches stay unfused.
        assert [op for op in topological_order(sinks)
                if isinstance(op, FusedGpuOp)] == []

    def test_explicit_parallelism_breaks_chain(self):
        _, session = make_session()
        ds = session.from_collection(np.arange(16.0), element_nbytes=8)
        chain = ds.gpu_map("double").gpu_map("inc", parallelism=2) \
            .gpu_map("double")
        sink = CollectSink(chain.op)
        apply_chaining([sink])
        assert fused_ops_of(sink) == []

    def test_comm_mode_split_fuses_compatible_subruns(self):
        _, session = make_session()
        ds = session.from_collection(np.arange(16.0), element_nbytes=8)
        chain = ds.gpu_map("double").gpu_map("inc") \
            .gpu_map("double", comm_mode=CommMode.JNI_HEAP) \
            .gpu_map("inc", comm_mode=CommMode.JNI_HEAP)
        sink = CollectSink(chain.op)
        apply_chaining([sink])
        fused = fused_ops_of(sink)
        assert len(fused) == 2
        assert {f.comm_mode for f in fused} == \
            {CommMode.GFLINK, CommMode.JNI_HEAP}

    def test_fused_gpu_op_requires_two_stages(self):
        _, session = make_session()
        ds = session.from_collection(np.arange(16.0), element_nbytes=8)
        op = ds.gpu_map("double").op
        assert isinstance(op, GpuMapPartitionOp)
        with pytest.raises(ConfigError, match="two stages"):
            FusedGpuOp(op.inputs[0], [op])


# -- end to end: execution under fusion ----------------------------------------

class TestChainedExecution:
    def _run(self, fused, depth=4, gpus=("c2050",)):
        _, session = make_session(fused=fused, gpus=gpus)
        data = np.arange(4000, dtype=np.float64)
        ds = session.from_collection(data, element_nbytes=8, scale=1e3,
                                     parallelism=2)
        for i in range(depth):
            ds = ds.gpu_map("double" if i % 2 == 0 else "inc")
        return data, ds.collect()

    def test_results_byte_identical(self):
        data, fused = self._run(True)
        _, unfused = self._run(False)
        assert list(fused.value) == list(unfused.value)
        expected = ((data * 2.0 + 1.0) * 2.0 + 1.0)
        assert np.allclose(np.sort(np.asarray(fused.value)),
                           np.sort(expected))

    def test_fused_saves_pcie_and_time(self):
        _, fused = self._run(True)
        _, unfused = self._run(False)
        assert fused.metrics.pcie_bytes * 2 <= unfused.metrics.pcie_bytes
        assert fused.metrics.makespan < unfused.metrics.makespan

    def test_stage_timings_reach_job_report(self):
        _, fused = self._run(True)
        assert set(fused.metrics.gpu_stage_seconds) == {"double", "inc"}

    def test_chain_with_filter_stage(self):
        data = np.arange(100, dtype=np.float64)
        results = {}
        for fused in (True, False):
            _, session = make_session(fused=fused)
            ds = session.from_collection(data, element_nbytes=8,
                                         parallelism=2)
            out = ds.gpu_map("double") \
                .gpu_map_partition("keep_small", params={"limit": 60.0}) \
                .gpu_map("inc").collect()
            results[fused] = sorted(out.value)
        assert results[True] == results[False]
        assert results[True] == sorted((data[data * 2 < 60] * 2 + 1).tolist())

    def test_empty_partitions_through_fused_chain(self):
        _, session = make_session(cores=4)
        data = np.arange(3, dtype=np.float64)  # fewer elements than slots
        out = session.from_collection(data, element_nbytes=8,
                                      parallelism=4) \
            .gpu_map("double").gpu_map("inc").collect()
        assert sorted(out.value) == sorted((data * 2 + 1).tolist())

    def test_intermediates_cached_across_iterative_jobs(self):
        """SpMV/KMeans-style driver loop: with a stable cache_key_base the
        second iteration resumes from the cached stage output — less PCIe,
        cache hits on the stage keys."""
        cluster, session = make_session(fused=True)
        data = np.arange(2000, dtype=np.float64)
        src = session.from_collection(data, element_nbytes=8, scale=1e3,
                                      parallelism=2)
        src.materialize()
        pcie = []
        for it in range(3):
            out = src.gpu_map("double", cache=True) \
                .gpu_map("inc", cache=True, cache_key_base="mid-out") \
                .collect(job_name=f"iter-{it}")
            assert np.allclose(np.sort(np.asarray(out.value)),
                               np.sort(data * 2.0 + 1.0))
            pcie.append(out.metrics.pcie_bytes)
        # Iteration 2+ skips the upload (input + intermediate cached).
        assert pcie[1] < pcie[0]
        assert pcie[2] == pcie[1]
        stats = cluster.gpu_managers()[0].gmm.stats(session.app_id)
        hits = sum(h for (h, m, e) in stats.values())
        assert hits > 0
