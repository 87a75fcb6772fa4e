"""CUDA kernels: registry, launch configuration, roofline cost model.

A registered kernel carries

* a **functional implementation** — plain NumPy code operating on the input
  buffers' arrays (the SIMT block-processing semantics: the whole block is
  processed at once, which is the entire point of the paper's bulk model);
* a **cost model** — roofline style: the kernel is either FLOP-bound or
  device-memory-bandwidth-bound; small launches are additionally degraded by
  occupancy (you cannot fill a P100 with 10 k threads), reproducing
  "the GPU is good at bulk computations" (paper §6.5).

The per-kernel ``efficiency`` expresses how far real code sits below peak
(divergence, uncoalesced access, atomics); Fig. 8b's per-kernel speedup
differences come from these efficiencies, and its per-device differences
from the specs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from repro.common.errors import ConfigError, KernelError
from repro.gpu.specs import GPUSpec


@dataclass(frozen=True)
class LaunchConfig:
    """Grid/block geometry of a kernel launch."""

    grid_size: int
    block_size: int = 256

    def __post_init__(self) -> None:
        if self.grid_size < 1 or self.block_size < 1:
            raise ConfigError(f"invalid launch config {self!r}")
        if self.block_size > 1024:
            raise ConfigError("block_size exceeds the CUDA limit of 1024")

    @property
    def total_threads(self) -> int:
        return self.grid_size * self.block_size

    @classmethod
    def for_elements(cls, n: int, block_size: int = 256) -> "LaunchConfig":
        """One thread per element, as in the paper's Algorithm 3.1."""
        grid = max(1, -(-int(n) // block_size))
        return cls(grid_size=grid, block_size=block_size)


@dataclass(frozen=True)
class KernelSpec:
    """A registered kernel: implementation + cost declaration.

    fn
        ``fn(inputs: dict[str, ndarray], params: dict) -> dict[str, ndarray]``
        — functional semantics over whole blocks.
    flops_per_element / bytes_per_element
        Work per element for the roofline model.
    efficiency
        Fraction of device peak this kernel sustains when fully occupied.
    layout_efficiency
        Per-data-layout multiplier on ``efficiency`` (GFlink's §2.1: "The
        efficiency performance of the same GPU application may drastically
        differ due to the use of different types of data layout").  Keys are
        layout names (``"array-of-structures"`` etc. — the values of
        :class:`repro.core.gstruct.DataLayout`); missing layouts default to
        1.0.  A column-scanning kernel would declare SoA ≈ 1.0 and AoS well
        below it (uncoalesced strided loads); a whole-record kernel the
        reverse.
    """

    name: str
    fn: Callable[[Mapping[str, Any], Mapping[str, Any]], Dict[str, Any]]
    flops_per_element: float
    bytes_per_element: float = 0.0
    efficiency: float = 0.5
    layout_efficiency: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigError(f"efficiency must be in (0, 1]: {self.efficiency}")
        if self.flops_per_element < 0 or self.bytes_per_element < 0:
            raise ConfigError("per-element work must be non-negative")
        for layout, mult in self.layout_efficiency.items():
            if not 0.0 < mult <= 1.0:
                raise ConfigError(
                    f"layout efficiency for {layout!r} must be in (0, 1]: "
                    f"{mult}")

    # -- cost model ---------------------------------------------------------------
    def occupancy(self, launch: LaunchConfig, spec: GPUSpec) -> float:
        """Fraction of the device a launch can keep busy.

        Clamped to [1/max_resident, 1]: a single block still makes progress.
        """
        frac = launch.total_threads / spec.max_threads_resident
        return min(1.0, max(frac, 1.0 / spec.max_threads_resident))

    def layout_multiplier(self, layout: Optional[object]) -> float:
        """Efficiency multiplier for the input data layout (default 1.0)."""
        if layout is None:
            return 1.0
        key = getattr(layout, "value", layout)
        return float(self.layout_efficiency.get(key, 1.0))

    def execution_seconds(self, n_elements: float, launch: LaunchConfig,
                          spec: GPUSpec,
                          layout: Optional[object] = None) -> float:
        """Roofline time for ``n_elements`` (nominal) on device ``spec``.

        ``layout`` is the input's data layout; coalescing quality scales the
        sustained fraction of both FLOP and memory throughput.
        """
        occ = self.occupancy(launch, spec)
        coalescing = self.layout_multiplier(layout)
        eff = self.efficiency * coalescing
        flop_time = (n_elements * self.flops_per_element
                     / (spec.sp_gflops * 1e9 * eff * occ))
        mem_time = (n_elements * self.bytes_per_element
                    / (spec.mem_bandwidth_bps * coalescing * occ))
        return spec.kernel_launch_s + max(flop_time, mem_time)


class KernelRegistry:
    """Name → kernel lookup, as the paper's "register them as GWork" step.

    The driver "provides CUDA kernel programs ... and registers them"; at
    execution time "the CUDA function will be found by the name provided by
    programmers" (§3.5.3).
    """

    def __init__(self) -> None:
        self._kernels: Dict[str, KernelSpec] = {}

    def register(self, spec: KernelSpec) -> KernelSpec:
        """Register a kernel; duplicate names are rejected."""
        if spec.name in self._kernels:
            raise ConfigError(f"kernel {spec.name!r} already registered")
        self._kernels[spec.name] = spec
        return spec

    def register_fn(self, name: str, flops_per_element: float,
                    bytes_per_element: float = 0.0,
                    efficiency: float = 0.5) -> Callable:
        """Decorator form of :meth:`register`."""
        def deco(fn):
            self.register(KernelSpec(name=name, fn=fn,
                                     flops_per_element=flops_per_element,
                                     bytes_per_element=bytes_per_element,
                                     efficiency=efficiency))
            return fn
        return deco

    def get(self, name: str) -> KernelSpec:
        """Look up a kernel by name; unknown names raise :class:`KernelError`."""
        try:
            return self._kernels[name]
        except KeyError:
            raise KernelError(
                f"no kernel named {name!r}; registered: "
                f"{sorted(self._kernels)}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._kernels

    def names(self) -> list[str]:
        """Registered kernel names."""
        return sorted(self._kernels)
