"""Device memory: allocation tracking and buffer handles.

Unlike system memory, "GPU device memory is still directly controlled by
individual applications" (paper §4.2) — so the allocator exposes explicit
alloc/free with out-of-memory failures, and GFlink's GMemoryManager builds
its automatic management and cache region on top of it.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

import numpy as np

from repro.common.errors import ConfigError, MemoryExhaustedError

_buffer_ids = itertools.count()


class DeviceBuffer:
    """A handle to an allocation in a device's memory.

    ``data`` carries the functional contents (a NumPy array or None); the
    timing model only cares about ``nbytes``.
    """

    __slots__ = ("buffer_id", "nbytes", "device_name", "data", "freed")

    def __init__(self, nbytes: int, device_name: str):
        self.buffer_id = next(_buffer_ids)
        self.nbytes = int(nbytes)
        self.device_name = device_name
        self.data: Optional[np.ndarray] = None
        self.freed = False

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<DeviceBuffer #{self.buffer_id} {self.nbytes}B "
                f"on {self.device_name}{' FREED' if self.freed else ''}>")


class DeviceMemory:
    """Byte-accounted allocator for one device."""

    def __init__(self, capacity_bytes: int, device_name: str):
        if capacity_bytes <= 0:
            raise ConfigError("device memory capacity must be positive")
        self.capacity = int(capacity_bytes)
        self.device_name = device_name
        self._live: Dict[int, DeviceBuffer] = {}
        self.allocated = 0
        self.peak_allocated = 0
        self.alloc_count = 0
        self.free_count = 0

    @property
    def available(self) -> int:
        """Bytes not currently allocated."""
        return self.capacity - self.allocated

    def alloc(self, nbytes: int) -> DeviceBuffer:
        """Allocate ``nbytes``; raises :class:`MemoryExhaustedError` when full."""
        if nbytes < 0:
            raise ConfigError(f"negative allocation: {nbytes}")
        if nbytes > self.available:
            raise MemoryExhaustedError(
                f"{self.device_name}: need {nbytes} B, "
                f"{self.available} B free of {self.capacity}")
        buf = DeviceBuffer(nbytes, self.device_name)
        self._live[buf.buffer_id] = buf
        self.allocated += buf.nbytes
        self.peak_allocated = max(self.peak_allocated, self.allocated)
        self.alloc_count += 1
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        """Release a buffer; double-free raises."""
        if buf.freed or buf.buffer_id not in self._live:
            raise ConfigError(f"double free of {buf!r}")
        del self._live[buf.buffer_id]
        self.allocated -= buf.nbytes
        buf.freed = True
        buf.data = None
        self.free_count += 1


class HostBuffer:
    """A host-side buffer ("HBuffer" in the paper) as seen by the DMA layer.

    ``pinned`` means page-locked via ``cudaHostRegister``: asynchronous DMA
    requires it, and unpinned transfers pay an extra staging copy.
    ``dma_capable`` distinguishes off-heap direct buffers (stable addresses)
    from JVM-heap arrays, which must first be copied out because the garbage
    collector may move them (paper §3.1).
    """

    __slots__ = ("nbytes", "data", "pinned", "dma_capable")

    def __init__(self, nbytes: int, data: Any = None, pinned: bool = False,
                 dma_capable: bool = True):
        self.nbytes = int(nbytes)
        self.data = data
        self.pinned = pinned
        self.dma_capable = dma_capable
