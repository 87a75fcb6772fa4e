"""A GPU device: compute engine, copy engines, device memory."""

from __future__ import annotations

from repro.common.resources import Port
from repro.common.simclock import Environment
from repro.gpu.memory import DeviceMemory
from repro.gpu.specs import GPUSpec


class GPUDevice:
    """One physical GPU in a worker node.

    Engine model — each engine is a :class:`~repro.common.resources.Port`,
    a FIFO unit server claimed through ``resources.serve``:

    * ``compute`` — a launch-config-filling kernel owns the whole device, so
      concurrent kernels from different streams serialize (their *copies*
      still overlap — that is the three-stage pipeline's win).
    * copy engines — one per direction for two-engine devices (full duplex);
      a single shared engine for one-engine devices, making the PCIe link
      half duplex exactly as §4.1.2 describes.

    A kernel's priced seconds and a DMA's wire time are known when the
    caller asks for the engine, so an engine hands itself on: a queued
    launch or copy starts in the step of the one that releases the engine,
    at that instant, and costs its one completion event, queued or not.
    """

    def __init__(self, env: Environment, spec: GPUSpec, index: int = 0,
                 name: str | None = None):
        self.env = env
        self.spec = spec
        self.index = index
        self.name = name or f"{spec.name}#{index}"
        self.memory = DeviceMemory(spec.mem_bytes, self.name)
        self.compute = Port()
        self._h2d_engine = Port()
        if spec.full_duplex:
            self._d2h_engine = Port()
        else:
            self._d2h_engine = self._h2d_engine  # shared: half duplex
        # Metrics.
        self.kernel_seconds = 0.0
        self.h2d_bytes = 0
        self.d2h_bytes = 0
        self.kernels_launched = 0

    def copy_engine(self, direction: str) -> Port:
        """The engine port for ``"h2d"`` or ``"d2h"`` transfers."""
        if direction == "h2d":
            return self._h2d_engine
        if direction == "d2h":
            return self._d2h_engine
        raise ValueError(f"direction must be 'h2d' or 'd2h': {direction!r}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<GPUDevice {self.name}>"
