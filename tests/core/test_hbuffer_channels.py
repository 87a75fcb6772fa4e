"""Tests for HBuffer blocking and the communication channels (incl. Table 2)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common import Environment
from repro.common.errors import LayoutError
from repro.core.channels import CommCosts, CommMode, CUDAWrapper
from repro.core.gstruct import Float32, GStruct8, StructField
from repro.core.hbuffer import Block, HBuffer
from repro.gpu import CUDARuntime, GPUDevice, KernelRegistry, TESLA_C2050
from repro.common.units import MB


class Vec(GStruct8):
    x = StructField(order=0, ftype=Float32)
    y = StructField(order=1, ftype=Float32)


class TestHBuffer:
    def test_for_struct_nbytes(self):
        arr = Vec.empty(100)
        h = HBuffer.for_struct(Vec, arr)
        assert h.element_nbytes == 8
        assert h.nbytes == 800
        assert h.dma_capable

    def test_heap_objects_not_dma_capable(self):
        h = HBuffer.heap_objects([1, 2, 3], element_nbytes=16)
        assert not h.dma_capable

    def test_nominal_scaling(self):
        h = HBuffer(np.zeros(100), element_nbytes=8, scale=1000.0)
        assert h.nominal_count == 100_000
        assert h.nbytes == 800_000

    def test_split_blocks_no_struct_straddles_page(self):
        arr = Vec.empty(1000)
        h = HBuffer.for_struct(Vec, arr)
        blocks = h.split_blocks(block_nbytes=100)  # 12 structs per block
        per = 100 // 8
        assert all(b.real_count <= per for b in blocks)
        assert sum(b.real_count for b in blocks) == 1000

    def test_split_blocks_preserves_nominal_total(self):
        h = HBuffer(np.zeros(777), element_nbytes=8, scale=123.0)
        blocks = h.split_blocks(block_nbytes=4096)
        assert sum(b.nominal_count for b in blocks) \
            == pytest.approx(777 * 123.0)

    def test_split_empty(self):
        h = HBuffer(np.zeros(0), element_nbytes=8)
        assert h.split_blocks(4096) == []

    def test_block_smaller_than_element_rejected(self):
        h = HBuffer(np.zeros(4), element_nbytes=64)
        with pytest.raises(LayoutError):
            h.split_blocks(32)

    @given(st.integers(min_value=1, max_value=5000),
           st.floats(min_value=1.0, max_value=1e4),
           st.integers(min_value=64, max_value=1 << 20))
    def test_property_blocks_partition_the_buffer(self, n, scale, block_b):
        h = HBuffer(np.zeros(n), element_nbytes=16, scale=scale)
        blocks = h.split_blocks(block_b)
        assert sum(b.real_count for b in blocks) == n
        assert sum(b.nominal_count for b in blocks) == pytest.approx(n * scale)
        # Block indices are consecutive from zero.
        assert [b.index for b in blocks] == list(range(len(blocks)))

    @given(st.integers(min_value=0, max_value=3000),
           st.sampled_from([0.0, 1.0, 4.0, 8.0, 12.5, 16.0, 40.0, 64.0]),
           st.floats(min_value=0.01, max_value=1e4),
           st.integers(min_value=1, max_value=1 << 16))
    def test_property_n_blocks_counts_the_split(self, n, element_nbytes,
                                                scale, block_b):
        h = HBuffer(np.zeros(n), element_nbytes=element_nbytes, scale=scale)
        try:
            blocks = h.split_blocks(block_b)
        except LayoutError:
            with pytest.raises(LayoutError):
                h.n_blocks(block_b)
            return
        assert h.n_blocks(block_b) == len(blocks)


def make_stack():
    env = Environment()
    device = GPUDevice(env, TESLA_C2050)
    runtime = CUDARuntime(env, [device], KernelRegistry())
    wrapper = CUDAWrapper(env, runtime, CommCosts())
    return env, device, runtime, wrapper


def transfer_time(env, device, wrapper, nbytes, mode):
    h = HBuffer(np.zeros(max(nbytes // 8, 1)), element_nbytes=8,
                off_heap=mode is CommMode.GFLINK,
                pinned=mode is CommMode.GFLINK)
    block = Block(index=0, elements=h.elements, nominal_count=nbytes / 8,
                  nbytes=nbytes)

    def proc():
        dst = yield from wrapper.cuda_malloc(device, nbytes)
        t0 = env.now
        yield from wrapper.transfer_h2d_inline(device, dst, block, h, mode)
        return env.now - t0

    return env.run(until=env.process(proc()))


class TestTransferChannel:
    """Table 2: bandwidth of the transfer channel vs the native path."""

    def native_time(self, nbytes):
        # Native: DMA with no JNI redirect.
        return TESLA_C2050.pcie_latency_s + nbytes / TESLA_C2050.pcie_effective_bps

    @pytest.mark.parametrize("nbytes,paper_gflink_mbps", [
        (2048, 776.398), (4096, 1241.311), (16384, 2195.872),
        (32768, 2556.237), (131072, 2858.368), (262144, 2968.151),
        (524288, 2960.003), (1048576, 2973.701),
    ])
    def test_gflink_bandwidth_matches_table2(self, nbytes, paper_gflink_mbps):
        env, device, runtime, wrapper = make_stack()
        t = transfer_time(env, device, wrapper, nbytes, CommMode.GFLINK)
        measured_mbps = nbytes / t / MB
        # Within 10% of the paper's measured row.
        assert measured_mbps == pytest.approx(paper_gflink_mbps, rel=0.10)

    def test_gflink_slower_than_native_for_small_transfers(self):
        env, device, runtime, wrapper = make_stack()
        t_gflink = transfer_time(env, device, wrapper, 2048, CommMode.GFLINK)
        t_native = self.native_time(2048)
        assert t_gflink > t_native
        # ...but the gap is the JNI redirect, i.e. sub-microsecond.
        assert t_gflink - t_native < 1e-6

    def test_gflink_matches_native_for_large_transfers(self):
        env, device, runtime, wrapper = make_stack()
        t_gflink = transfer_time(env, device, wrapper, 1 << 20,
                                 CommMode.GFLINK)
        assert t_gflink == pytest.approx(self.native_time(1 << 20), rel=0.01)

    def test_bandwidth_increases_with_size_then_plateaus(self):
        env, device, runtime, wrapper = make_stack()
        bws = []
        for nbytes in (2048, 16384, 131072, 1 << 20):
            t = transfer_time(env, device, wrapper, nbytes, CommMode.GFLINK)
            bws.append(nbytes / t)
        assert bws == sorted(bws)
        assert bws[-1] / bws[-2] < 1.05  # plateau


class TestCommPathAblation:
    def test_jni_heap_path_pays_conversion(self):
        env, device, runtime, wrapper = make_stack()
        nbytes = 10 * MB
        t_gflink = transfer_time(env, device, wrapper, nbytes,
                                 CommMode.GFLINK)
        t_heap = transfer_time(env, device, wrapper, nbytes,
                               CommMode.JNI_HEAP)
        assert t_heap > t_gflink * 2  # serde + heap copy dominate

    def test_rpc_path_is_worst(self):
        env, device, runtime, wrapper = make_stack()
        nbytes = 10 * MB
        t_heap = transfer_time(env, device, wrapper, nbytes,
                               CommMode.JNI_HEAP)
        t_rpc = transfer_time(env, device, wrapper, nbytes, CommMode.RPC)
        assert t_rpc > t_heap

    def test_jni_call_counted(self):
        env, device, runtime, wrapper = make_stack()
        before = wrapper.jni_calls
        transfer_time(env, device, wrapper, 2048, CommMode.GFLINK)
        assert wrapper.jni_calls > before
