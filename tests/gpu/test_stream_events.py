"""Tests for CUDA stream bookkeeping and wrapper control-channel calls."""

import pytest

from repro.common import Environment
from repro.core.channels import CommCosts, CUDAWrapper
from repro.gpu import CUDARuntime, GPUDevice, KernelRegistry, TESLA_C2050
from repro.gpu.stream import CUDAStream


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def device(env):
    return GPUDevice(env, TESLA_C2050)


class TestStreamIdle:
    def test_ops_enqueued_counter(self, env, device):
        stream = CUDAStream(env, device)
        for _ in range(3):
            stream.enqueue(lambda: iter(()))
        assert stream.ops_enqueued == 3


class TestControlChannel:
    def test_wrapper_charges_jni_per_call(self, env, device):
        runtime = CUDARuntime(env, [device], KernelRegistry())
        wrapper = CUDAWrapper(env, runtime, CommCosts(jni_call_s=1e-6))

        def proc():
            buf = yield from wrapper.cuda_malloc(device, 1024)
            yield from wrapper.cuda_free(device, buf)

        env.run(until=env.process(proc()))
        assert wrapper.jni_calls == 2
        # Two JNI redirects plus two driver alloc overheads.
        expected = 2 * 1e-6 + 2 * CUDARuntime.alloc_overhead_s
        assert env.now == pytest.approx(expected)
