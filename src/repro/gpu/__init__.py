"""Simulated CUDA GPUs.

A calibrated discrete-event model of the GPUs in the paper's testbed
(GeForce GTX 750, Tesla C2050, Tesla K20, Tesla P100):

* :mod:`repro.gpu.specs` — published per-device peak numbers (SM count,
  single-precision GFLOP/s, memory size/bandwidth, PCIe generation, copy
  engines);
* :mod:`repro.gpu.device` — a device with one compute engine (a fully
  occupied kernel owns the GPU; concurrent kernels queue) and one or two DMA
  copy engines (half- vs full-duplex PCIe, paper §4.1.2);
* :mod:`repro.gpu.memory` — device-memory allocator with OOM semantics;
* :mod:`repro.gpu.stream` — CUDA streams (in-order command queues that
  overlap across streams);
* :mod:`repro.gpu.kernel` — a kernel registry: each kernel carries a real
  NumPy implementation (functional result) plus a roofline-style cost model
  (FLOPs- or memory-bandwidth-bound, occupancy-degraded for small launches);
* :mod:`repro.gpu.runtime` — the ``cuda*`` host API ("CUDAStub"):
  malloc, the inline transfer and kernel calls the GPU pipeline makes, and
  the stream calls (create, async copies and launch, synchronize) that
  ``benchmarks/perf/probes.py`` times.

The *control-channel* (JNI) overhead of calling into this API from the JVM
side is charged by :mod:`repro.core.channels`, not here — this package is the
"native" side of the stack.
"""

from repro.gpu.specs import GPUSpec, GTX750, TESLA_C2050, TESLA_K20, TESLA_P100, get_spec, SPECS
from repro.gpu.device import GPUDevice
from repro.gpu.memory import DeviceBuffer, DeviceMemory
from repro.gpu.stream import CUDAStream
from repro.gpu.kernel import KernelRegistry, KernelSpec, LaunchConfig
from repro.gpu.runtime import CUDARuntime

__all__ = [
    "GPUSpec",
    "GTX750",
    "TESLA_C2050",
    "TESLA_K20",
    "TESLA_P100",
    "SPECS",
    "get_spec",
    "GPUDevice",
    "DeviceBuffer",
    "DeviceMemory",
    "CUDAStream",
    "KernelRegistry",
    "KernelSpec",
    "LaunchConfig",
    "CUDARuntime",
]
