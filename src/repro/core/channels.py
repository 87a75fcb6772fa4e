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
from repro.gpu.memory import DeviceBuffer, HostBuffer
from repro.gpu.runtime import CUDARuntime, snapshot


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
    (``cudaMalloc``, ``cudaFree``) the redirect rides in the same fused
    event — nothing can observe the instant between them.

    A pipeline stage's per-block calls are one generator frame each —
    ``cuda_malloc`` / ``cuda_free`` yield their fused charge themselves,
    ``transfer_h2d_inline`` goes straight to ``transfer_op`` after its
    redirect — or none: the kernel and D2H stages claim the compute and
    copy engines themselves (:mod:`repro.core.gstream`), counting their
    redirects here in ``jni_calls`` and paying them in a fused charge (a
    launch's in its output buffer's ``cudaMalloc``, a copy's in the
    hand-off that wakes the stage).
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
            premium = self.path_premium_s(block.nbytes, mode)
            if premium:
                yield self.env.timeout(premium)
        self.jni_calls += 1
        yield self.env.timeout(self.costs.jni_call_s)
        window = yield from self.runtime.transfer_op(
            device, "h2d", block.nbytes, hbuffer.pinned and gflink)
        dst.data = snapshot(block.elements)
        return window

    def path_premium_s(self, nbytes: float, mode: CommMode) -> float:
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
