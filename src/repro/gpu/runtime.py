"""The ``cuda*`` host API — the "CUDAStub" side of the paper's stack.

Exports the runtime calls GFlink's CUDAWrapper redirects to over JNI
(§4.1.1): ``cudaMalloc``, ``cudaMemcpyH2D`` and the ``Async`` copies on
streams, ``cudaStreamCreate``/``cudaStreamSynchronize`` and kernel launch
by registered name.  ``cudaFree`` is
``repro.core.channels.CUDAWrapper.cuda_free``, which charges
:attr:`CUDARuntime.alloc_overhead_s` itself.  The stream calls are what
``benchmarks/perf/probes.py`` times; the engine's path is inline (below).

Synchronous calls are simulation generators (``yield from`` them inside a
process); asynchronous calls enqueue onto a :class:`~repro.gpu.stream.CUDAStream`
and return the completion event immediately.

A launch is two plain calls around the caller's claim on the device's
compute engine: :meth:`CUDARuntime.price` (the roofline seconds, priced
once per distinct shape) and :meth:`CUDARuntime.execute` (count the launch,
run the kernel, bind its outputs).  :meth:`CUDARuntime.kernel_op` is that
claim as a generator, for the stream path; the three-stage pipeline of
:mod:`repro.core.gstream` makes the claim in its kernel stage loop, and
claims the D2H copy engine there too, so no generator sits between a
block and an engine.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Mapping, Optional

import numpy as np

from repro.common.errors import KernelError
from repro.common.resources import serve
from repro.common.simclock import Environment, Event
from repro.gpu.device import GPUDevice
from repro.gpu.kernel import KernelRegistry, KernelSpec, LaunchConfig
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
    #: Entries either priced-once table may hold.  A pipeline has a handful
    #: of distinct block shapes; only a chain whose fan-out differs block by
    #: block adds one per block, and then the table is dropped and refilled.
    priced_max = 4096

    def __init__(self, env: Environment, devices: list[GPUDevice],
                 registry: KernelRegistry):
        self.env = env
        self.devices = list(devices)
        self.registry = registry
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

    # -- streams -------------------------------------------------------------------
    def stream_create(self, device: GPUDevice) -> CUDAStream:
        """``cudaStreamCreate``."""
        return CUDAStream(self.env, device)

    def stream_synchronize(self, stream: CUDAStream) -> Event:
        """``cudaStreamSynchronize``: event for all enqueued work done."""
        return stream.synchronize()

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

    def price(self, device: GPUDevice, kernel_name: str, n_elements: float,
              launch: LaunchConfig, layout: Optional[Any] = None) -> float:
        """The roofline seconds of one launch, priced once per distinct
        (kernel, count, launch geometry, device, layout): a pipeline's
        blocks come in a handful of shapes."""
        key = (kernel_name, n_elements, launch.grid_size,
               launch.block_size, device, layout)
        seconds = self._seconds.get(key)
        if seconds is None:
            if len(self._seconds) >= self.priced_max:
                self._seconds.clear()
            seconds = self._seconds[key] = self.registry.get(
                kernel_name).execution_seconds(n_elements, launch,
                                               device.spec, layout=layout)
        return seconds

    def execute(self, device: GPUDevice, spec: KernelSpec, seconds: float,
                inputs: Mapping[str, DeviceBuffer],
                outputs: Mapping[str, DeviceBuffer],
                params: Optional[Mapping[str, Any]] = None
                ) -> Dict[str, Any]:
        """The launch body, run by a caller that holds ``device.compute``
        for ``seconds``: count the launch, run the kernel on the input
        buffers' arrays and bind its outputs.  Returns the kernel's
        results."""
        device.kernel_seconds += seconds
        device.kernels_launched += 1
        arrays = {}  # a loop, not a comprehension: no frame per launch
        for name, buf in inputs.items():
            arrays[name] = buf.data
        results = spec.fn(arrays, dict(params or {}))
        if results is None:
            results = {}
        for name, buf in outputs.items():
            if name not in results:
                raise KernelError(
                    f"kernel {spec.name!r} produced no output "
                    f"{name!r}; got {sorted(results)}")
            buf.data = results[name]
        return results

    def kernel_op(self, device: GPUDevice, kernel_name: str,
                  n_elements: float, launch: LaunchConfig,
                  inputs: Mapping[str, DeviceBuffer],
                  outputs: Mapping[str, DeviceBuffer],
                  params: Optional[Mapping[str, Any]] = None,
                  layout: Optional[Any] = None
                  ) -> Generator[Event, None, "tuple[Dict[str, Any], float]"]:
        """Inline (stream-less) kernel execution: :meth:`price`, then
        :meth:`execute` while holding the device's compute engine.

        Returns ``(results, seconds)``: the kernel's outputs and the roofline
        seconds the engine was held.  Being known before the launch asks
        for the engine, they are its service: a launch that queued starts
        in the step of the kernel ahead of it.
        """
        spec = self.registry.get(kernel_name)
        seconds = self.price(device, kernel_name, n_elements, launch, layout)
        run = serve(self.env, device.compute, None, seconds)
        try:
            yield run
            results = self.execute(device, spec, seconds, inputs, outputs,
                                   params)
        finally:
            run.release()
        return results, seconds
