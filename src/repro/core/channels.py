"""The JVM↔GPU communication strategy: control and transfer channels.

§4.1 splits communication into a **control channel** — CUDAWrapper (Java)
redirects API calls over JNI to CUDAStub (C++), paying a small per-call
redirect cost — and a **transfer channel** — bulk data moved by the DMA
engine over PCIe directly from off-heap direct buffers.

Three communication paths are implemented, because the paper's argument is
comparative:

* ``CommMode.GFLINK`` — the proposed path: raw GStruct bytes already sit in
  off-heap memory matching the CUDA struct layout, so a transfer is just
  JNI-redirect + DMA.  (Table 2 shows this within a whisker of native.)
* ``CommMode.JNI_HEAP`` — the naive JNI path of [12], [13] (§3.1): convert
  and accumulate JVM objects into a heap buffer (serialization-rate cost),
  copy heap→native (the GC makes heap addresses unstable), then DMA from
  unpinned memory.
* ``CommMode.RPC`` — the HeteroSpark-style path [10]: serialize and push the
  data through the local TCP/IP stack to a GPU-owning process, then DMA.

The calibration (``jni_call_s`` = 0.155 µs) is fitted so the GFlink column of
Table 2 reproduces alongside the native column.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Generator, Optional

from repro.common.simclock import Environment, Event
from repro.core.hbuffer import Block, HBuffer
from repro.gpu.device import GPUDevice
from repro.gpu.kernel import LaunchConfig
from repro.gpu.memory import DeviceBuffer, HostBuffer
from repro.gpu.runtime import CUDARuntime, snapshot
from repro.gpu.stream import CUDAStream


class CommMode(Enum):
    """Which JVM→GPU communication path a transfer uses."""

    GFLINK = "gflink"      # off-heap direct buffer, zero-copy DMA
    JNI_HEAP = "jni-heap"  # convert + heap->native copy + pageable DMA
    RPC = "rpc"            # serialize + loopback TCP + DMA


@dataclass(frozen=True)
class CommCosts:
    """Calibration of the communication paths (DESIGN.md §5)."""

    jni_call_s: float = 0.155e-6    # CUDAWrapper -> CUDAStub redirect
    serde_bps: float = 0.8e9        # JVM object <-> byte conversion
    heap_copy_bps: float = 4.0e9    # JVM heap -> native memcpy
    rpc_loopback_bps: float = 1.2e9 # TCP/IP stack on localhost
    rpc_call_s: float = 45e-6       # RPC marshalling + syscalls per call


class CUDAWrapper:
    """The Java-side wrapper: control channel + transfer channel.

    Every method charges one JNI redirect (the control channel) before
    delegating to the native :class:`~repro.gpu.runtime.CUDARuntime`
    ("CUDAStub").  Where the stub's first act is a fixed driver charge
    (``cudaMalloc``, ``cudaFree``, ``cudaHostRegister``) the redirect rides
    in the same fused event — nothing can observe the instant between them.

    The calls a pipeline stage makes once per block are one generator
    frame each: ``cuda_malloc`` / ``cuda_free`` yield their fused charge
    themselves, ``launch_kernel_inline`` hands its redirect to the runtime's
    stream-less ``kernel_op``, and the ``transfer_*_inline`` calls go
    straight to ``transfer_op`` — the H2D one after its redirect, the D2H
    one after the caller has waited its redirect out.
    """

    def __init__(self, env: Environment, runtime: CUDARuntime,
                 costs: Optional[CommCosts] = None):
        self.env = env
        self.runtime = runtime
        self.costs = costs or CommCosts()
        self.jni_calls = 0

    # -- control channel -----------------------------------------------------------
    def cuda_malloc(self, device: GPUDevice,
                    nbytes: int) -> Generator[Event, None, DeviceBuffer]:
        """``cudaMalloc`` via JNI."""
        self.jni_calls += 1
        yield self.env.timeout(self.costs.jni_call_s,
                               then=self.runtime.alloc_overhead_s)
        return device.memory.alloc(nbytes)

    def cuda_free(self, device: GPUDevice,
                  buf: DeviceBuffer) -> Generator[Event, None, None]:
        """``cudaFree`` via JNI."""
        self.jni_calls += 1
        yield self.env.timeout(self.costs.jni_call_s,
                               then=self.runtime.alloc_overhead_s)
        device.memory.free(buf)

    def cuda_stream_create(self, device: GPUDevice) -> CUDAStream:
        """``cudaStreamCreate`` via JNI (wrapper-side object, no wait)."""
        self.jni_calls += 1
        return self.runtime.stream_create(device)

    def cuda_host_register(self, host: HostBuffer
                           ) -> Generator[Event, None, HostBuffer]:
        """``cudaHostRegister``: page-lock a host buffer."""
        self.jni_calls += 1
        result = yield from self.runtime.host_register(
            host, self.costs.jni_call_s)
        return result

    def cuda_device_synchronize(self, device: GPUDevice) -> Event:
        """``cudaDeviceSynchronize`` via JNI."""
        self.jni_calls += 1
        return self.runtime.device_synchronize(device)

    def cuda_event_record(self, stream: CUDAStream):
        """``cudaEventRecord``: a Java-side virtualized CUDA event (§3.4:
        "many objects in CUDA (e.g., Streams, cudaEvent) are also
        virtualized in CUDAWrapper in the form of Java")."""
        self.jni_calls += 1
        return stream.record_event()

    def cuda_event_synchronize(self, event) -> Event:
        """``cudaEventSynchronize``: wait for a recorded event."""
        self.jni_calls += 1
        return event.wait()

    # -- transfer channel ----------------------------------------------------------
    def host_view(self, block: Block, hbuffer: HBuffer,
                  mode: CommMode) -> HostBuffer:
        """A native-side view of one block of an HBuffer."""
        pinned = hbuffer.pinned and mode is CommMode.GFLINK
        return HostBuffer(nbytes=block.nbytes, data=block.elements,
                          pinned=pinned, dma_capable=hbuffer.dma_capable)

    # Run inside the calling process: the three-stage pipeline's stage
    # processes provide their own ordering and must not hold a stream lock.
    def transfer_h2d_inline(self, device: GPUDevice, dst: DeviceBuffer,
                            block: Block, hbuffer: HBuffer,
                            mode: CommMode = CommMode.GFLINK
                            ) -> Generator[Event, None, "tuple[float, float]"]:
        """One block host→device, run inside the calling process.

        Returns the copy engine's exact ``(start, end)`` occupancy window.
        """
        gflink = mode is CommMode.GFLINK
        if not gflink:
            premium = self._path_premium_s(block.nbytes, mode)
            if premium:
                yield self.env.timeout(premium)
        self.jni_calls += 1
        yield self.env.timeout(self.costs.jni_call_s)
        window = yield from self.runtime.transfer_op(
            device, "h2d", block.nbytes, hbuffer.pinned and gflink)
        dst.data = snapshot(block.elements)
        return window

    def transfer_d2h_inline(self, device: GPUDevice, dst_hbuffer: HBuffer,
                            src: DeviceBuffer, nbytes: int,
                            mode: CommMode = CommMode.GFLINK
                            ) -> Generator[Event, None, "tuple[object, tuple[float, float]]"]:
        """One result block device→host, its JNI redirect already waited.

        The redirect is counted here, but its latency (``costs.jni_call_s``)
        is the caller's to pay before the call: the D2H stage, the one
        caller, pays it in the hand-off that gives it the block
        (``Store.get(then=…)``), so the wake and the redirect are one event.

        Returns ``(payload, engine_window)`` — the payload plus the copy
        engine's exact occupancy interval.
        """
        gflink = mode is CommMode.GFLINK
        self.jni_calls += 1
        window = yield from self.runtime.transfer_op(
            device, "d2h", nbytes, dst_hbuffer.pinned and gflink)
        data = snapshot(src.data)
        if not gflink:
            premium = self._path_premium_s(nbytes, mode)
            if premium:
                yield self.env.timeout(premium)
        return data, window

    def launch_kernel_inline(self, device: GPUDevice, kernel_name: str,
                             n_elements: float, launch: LaunchConfig,
                             inputs, outputs, params=None,
                             layout=None
                             ) -> Generator[Event, None, "tuple[dict, float]"]:
        """Kernel execution inside the calling process (pipeline stage).

        Returns the runtime's ``kernel_op`` generator, which charges the
        JNI redirect ahead of the launch — one generator, not a wrapper
        around one — and yields ``(results, kernel_seconds)``.
        """
        self.jni_calls += 1
        return self.runtime.kernel_op(
            device, kernel_name, n_elements, launch, inputs, outputs, params,
            layout=layout, redirect_s=self.costs.jni_call_s)

    def _path_premium_s(self, nbytes: float, mode: CommMode) -> float:
        """Extra per-byte cost the non-GFlink paths pay (one direction)."""
        c = self.costs
        if mode is CommMode.GFLINK:
            return 0.0
        if mode is CommMode.JNI_HEAP:
            # Convert objects to a buffer, then copy the buffer off-heap.
            return nbytes / c.serde_bps + nbytes / c.heap_copy_bps
        if mode is CommMode.RPC:
            return (c.rpc_call_s + nbytes / c.serde_bps
                    + nbytes / c.rpc_loopback_bps)
        raise ValueError(mode)  # pragma: no cover - exhaustive
