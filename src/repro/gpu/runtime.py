"""The ``cuda*`` host API — the "CUDAStub" side of the paper's stack.

Exports the runtime calls GFlink's CUDAWrapper redirects to over JNI
(§4.1.1): ``cudaMalloc``, ``cudaHostRegister``, ``cudaMemcpyH2D``/``D2H``
and their ``Async`` variants on streams,
``cudaStreamCreate``/``cudaStreamSynchronize``, kernel launch by registered
name, and ``cudaDeviceSynchronize``.  ``cudaFree`` is
``repro.core.channels.CUDAWrapper.cuda_free``, which charges
:attr:`CUDARuntime.alloc_overhead_s` itself.

Synchronous calls are simulation generators (``yield from`` them inside a
process); asynchronous calls enqueue onto a :class:`~repro.gpu.stream.CUDAStream`
and return the completion event immediately — which is what lets the
three-stage pipeline overlap H2D, kernel and D2H across streams.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Mapping, Optional

import numpy as np

from repro.common.errors import KernelError
from repro.common.resources import serve
from repro.common.simclock import Environment, Event
from repro.gpu.device import GPUDevice
from repro.gpu.kernel import KernelRegistry, LaunchConfig
from repro.gpu.memory import DeviceBuffer, HostBuffer
from repro.gpu.stream import CUDAStream


def snapshot(data: Any) -> Any:
    """Copy array payloads on transfer so host/device don't alias."""
    if isinstance(data, np.ndarray):
        return data.copy()
    return data


class CUDARuntime:
    """Host-side CUDA runtime over one node's GPUs."""

    #: Staging penalty for pageable (unpinned) host memory: the driver must
    #: bounce through an internal pinned buffer.
    pageable_staging_bps = 4.0e9
    #: Driver time for cudaMalloc/cudaFree.
    alloc_overhead_s = 10e-6
    #: Page-locking cost per byte (cudaHostRegister walks page tables).
    pin_bps = 20.0e9
    #: Entries either priced-once table may hold.  A pipeline has a handful
    #: of distinct block shapes; only a chain whose fan-out differs block by
    #: block adds one per block, and then the table is dropped and refilled.
    priced_max = 4096

    def __init__(self, env: Environment, devices: list[GPUDevice],
                 registry: KernelRegistry):
        self.env = env
        self.devices = list(devices)
        self.registry = registry
        self._streams: Dict[int, list[CUDAStream]] = {
            d.index: [] for d in devices}
        # The default stream per device.
        self.default_streams = {d.index: self.stream_create(d)
                                for d in devices}
        # Priced once: launch geometry by (count, block size), roofline
        # seconds by (kernel, count, grid, block size, device, layout).
        self._launches: Dict[tuple, LaunchConfig] = {}
        self._seconds: Dict[tuple, float] = {}

    # -- memory management --------------------------------------------------------
    def malloc(self, device: GPUDevice, nbytes: int
               ) -> Generator[Event, None, DeviceBuffer]:
        """``cudaMalloc``: allocate device memory (raises on OOM)."""
        yield self.env.timeout(self.alloc_overhead_s)
        return device.memory.alloc(nbytes)

    def host_register(self, hbuf: HostBuffer, redirect_s: float = 0.0
                      ) -> Generator[Event, None, HostBuffer]:
        """``cudaHostRegister``: page-lock a host buffer for async DMA.

        ``redirect_s`` is the caller's control-channel latency (the JNI
        redirect), charged ahead of the driver time in the same fused
        event: ``(now + redirect_s) + driver_s``.
        """
        if not hbuf.pinned:
            yield self.env.timeout(redirect_s, then=hbuf.nbytes / self.pin_bps)
            hbuf.pinned = True
        elif redirect_s:
            yield self.env.timeout(redirect_s)
        return hbuf

    # -- streams -------------------------------------------------------------------
    def stream_create(self, device: GPUDevice) -> CUDAStream:
        """``cudaStreamCreate``."""
        stream = CUDAStream(self.env, device)
        self._streams[device.index].append(stream)
        return stream

    def stream_synchronize(self, stream: CUDAStream) -> Event:
        """``cudaStreamSynchronize``: event for all enqueued work done."""
        return stream.synchronize()

    def device_synchronize(self, device: GPUDevice) -> Event:
        """``cudaDeviceSynchronize``: all streams of the device drained."""
        return self.env.all_of([s.synchronize()
                                for s in self._streams[device.index]])

    # -- transfers -----------------------------------------------------------------
    def transfer_op(self, device: GPUDevice, direction: str, nbytes: int,
                    pinned: bool
                    ) -> Generator[Event, None, "tuple[float, float]"]:
        """One inline (stream-less) DMA transfer of ``nbytes``, payload
        aside; returns the copy engine's occupancy window.

        The ``(start, end)`` return value is the exact interval the engine
        was *held* (wire time, excluding queue wait and pageable staging) —
        the tracer records it verbatim, which is what guarantees copy spans
        on an engine lane never overlap.  The engine's service is one event:
        a copy that queued starts in the step of the one ahead of it.
        """
        env = self.env
        if not pinned:
            # Pageable memory: staged through the driver's bounce buffer.
            yield env.timeout(nbytes / self.pageable_staging_bps)
        spec = device.spec
        copy = serve(env, device.copy_engine(direction), None,
                     spec.pcie_latency_s + nbytes / spec.pcie_effective_bps)
        try:
            yield copy
        finally:
            copy.release()
        if direction == "h2d":
            device.h2d_bytes += nbytes
        else:
            device.d2h_bytes += nbytes
        return copy.start, env.now

    def memcpy_h2d(self, device: GPUDevice, dst: DeviceBuffer,
                   src: HostBuffer, nbytes: Optional[int] = None
                   ) -> Generator[Event, None, "tuple[float, float]"]:
        """``cudaMemcpyH2D`` (synchronous); returns the engine window."""
        n = src.nbytes if nbytes is None else nbytes
        window = yield from self.transfer_op(device, "h2d", n, src.pinned)
        dst.data = snapshot(src.data)
        return window

    def memcpy_d2h(self, device: GPUDevice, dst: HostBuffer,
                   src: DeviceBuffer, nbytes: Optional[int] = None
                   ) -> Generator[Event, None, "tuple[float, float]"]:
        """``cudaMemcpyD2H`` (synchronous); returns the engine window."""
        n = src.nbytes if nbytes is None else nbytes
        window = yield from self.transfer_op(device, "d2h", n, dst.pinned)
        dst.data = snapshot(src.data)
        return window

    def memcpy_h2d_async(self, device: GPUDevice, stream: CUDAStream,
                         dst: DeviceBuffer, src: HostBuffer,
                         nbytes: Optional[int] = None) -> Event:
        """``cudaMemcpyH2DAsync``: enqueue on ``stream``, return completion."""
        n = src.nbytes if nbytes is None else nbytes

        def op():
            yield from self.transfer_op(device, "h2d", n, src.pinned)
            dst.data = snapshot(src.data)

        return stream.enqueue(op, name="h2d-async")

    def memcpy_d2h_async(self, device: GPUDevice, stream: CUDAStream,
                         dst: HostBuffer, src: DeviceBuffer,
                         nbytes: Optional[int] = None) -> Event:
        """``cudaMemcpyD2HAsync``."""
        n = src.nbytes if nbytes is None else nbytes

        def op():
            yield from self.transfer_op(device, "d2h", n, dst.pinned)
            dst.data = snapshot(src.data)

        return stream.enqueue(op, name="d2h-async")

    def memset(self, device: GPUDevice, buf: DeviceBuffer, value: int = 0
               ) -> Generator[Event, None, None]:
        """``cudaMemset``: fill a device buffer at device-memory bandwidth."""
        yield self.env.timeout(buf.nbytes / device.spec.mem_bandwidth_bps)
        if isinstance(buf.data, np.ndarray):
            buf.data = np.full_like(buf.data, value)
        else:
            buf.data = None if value == 0 else buf.data

    # -- kernels -----------------------------------------------------------------
    def launch_config(self, n_elements: float,
                      block_size: int = 256) -> LaunchConfig:
        """:meth:`LaunchConfig.for_elements`, built once per distinct
        ``(n_elements, block_size)``."""
        key = (n_elements, block_size)
        launch = self._launches.get(key)
        if launch is None:
            if len(self._launches) >= self.priced_max:
                self._launches.clear()
            launch = self._launches[key] = LaunchConfig.for_elements(
                n_elements, block_size)
        return launch

    def launch_kernel(self, device: GPUDevice, stream: CUDAStream,
                      kernel_name: str, n_elements: float,
                      launch: LaunchConfig,
                      inputs: Mapping[str, DeviceBuffer],
                      outputs: Mapping[str, DeviceBuffer],
                      params: Optional[Mapping[str, Any]] = None,
                      layout: Optional[Any] = None) -> Event:
        """Launch a registered kernel asynchronously on ``stream``.

        ``n_elements`` is the *nominal* element count (drives the cost
        model); the functional implementation runs on the real arrays in the
        input buffers and writes the output buffers.
        """
        def op():
            results, _seconds = yield from self.kernel_op(
                device, kernel_name, n_elements, launch, inputs, outputs,
                params, layout=layout)
            return results

        return stream.enqueue(op, name=f"kernel-{kernel_name}")

    def kernel_op(self, device: GPUDevice, kernel_name: str,
                  n_elements: float, launch: LaunchConfig,
                  inputs: Mapping[str, DeviceBuffer],
                  outputs: Mapping[str, DeviceBuffer],
                  params: Optional[Mapping[str, Any]] = None,
                  layout: Optional[Any] = None, redirect_s: float = 0.0
                  ) -> Generator[Event, None, "tuple[Dict[str, Any], float]"]:
        """Inline (stream-less) kernel execution for custom pipelines.

        Claims the device's compute engine directly; callers that need
        stream ordering should use :meth:`launch_kernel` instead.
        ``redirect_s`` is the caller's control-channel latency (the JNI
        redirect), charged before the launch joins the engine's queue.

        Returns ``(results, seconds)``: the kernel's outputs and the roofline
        seconds the engine was held, so callers recording the span need not
        evaluate the cost model.  The seconds are priced once per distinct
        (kernel, count, launch geometry, device, layout): a pipeline's
        blocks come in a handful of shapes.  Being known before the launch
        asks for the engine, they are its service: a launch that queued
        starts in the step of the kernel ahead of it.
        """
        spec = self.registry.get(kernel_name)
        params = dict(params or {})
        if redirect_s:
            yield self.env.timeout(redirect_s)
        key = (kernel_name, n_elements, launch.grid_size,
               launch.block_size, device, layout)
        seconds = self._seconds.get(key)
        if seconds is None:
            if len(self._seconds) >= self.priced_max:
                self._seconds.clear()
            seconds = self._seconds[key] = spec.execution_seconds(
                n_elements, launch, device.spec, layout=layout)
        run = serve(self.env, device.compute, None, seconds)
        try:
            yield run
            device.kernel_seconds += seconds
            device.kernels_launched += 1
            in_arrays = {name: buf.data for name, buf in inputs.items()}
            results = spec.fn(in_arrays, params)
            if results is None:
                results = {}
            for name, buf in outputs.items():
                if name not in results:
                    raise KernelError(
                        f"kernel {kernel_name!r} produced no output "
                        f"{name!r}; got {sorted(results)}")
                buf.data = results[name]
        finally:
            run.release()
        return results, seconds
