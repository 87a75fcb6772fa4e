"""Page-based managed memory, Flink style.

Flink pre-allocates its managed memory as fixed-size pages (memory segments)
and hands them to operators; GFlink stores GStruct raw bytes in *off-heap*
segments so they can be DMA'd to GPUs without copies, and sizes its transfer
blocks to exactly one page so a GStruct never straddles a page boundary
(paper §5.1).  This module provides that allocator with on-heap/off-heap
pools and allocation bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.common.errors import ConfigError, MemoryExhaustedError


class MemoryKind(Enum):
    """Where a segment lives — governs whether the GPU DMA can see it."""

    HEAP = "heap"          # inside the garbage-collected JVM heap
    OFF_HEAP = "off_heap"  # direct buffers: stable addresses, DMA-able


@dataclass(frozen=True)
class MemorySegment:
    """A fixed-size page of managed memory."""

    segment_id: int
    nbytes: int
    kind: MemoryKind

    @property
    def dma_capable(self) -> bool:
        """Only off-heap segments have stable physical addresses (§4.1.2)."""
        return self.kind is MemoryKind.OFF_HEAP


class MemoryManager:
    """Per-TaskManager page allocator with heap and off-heap pools."""

    def __init__(self, total_bytes: int, page_size: int,
                 off_heap_fraction: float = 0.5):
        if total_bytes <= 0 or page_size <= 0:
            raise ConfigError("memory sizes must be positive")
        if not 0.0 <= off_heap_fraction <= 1.0:
            raise ConfigError(
                f"off_heap_fraction must be in [0,1]: {off_heap_fraction}")
        self.page_size = page_size
        total_pages = total_bytes // page_size
        self._capacity = {
            MemoryKind.OFF_HEAP: int(total_pages * off_heap_fraction),
            MemoryKind.HEAP: total_pages - int(total_pages * off_heap_fraction),
        }
        self._allocated = {MemoryKind.OFF_HEAP: 0, MemoryKind.HEAP: 0}
        self._next_id = 0
        self.peak_pages = 0

    # -- queries ------------------------------------------------------------------
    def pages_for(self, nbytes: float) -> int:
        """Pages needed to hold ``nbytes`` (ceiling division)."""
        if nbytes < 0:
            raise ConfigError(f"negative size: {nbytes}")
        return max(1, -(-int(nbytes) // self.page_size)) if nbytes else 0

    def available_pages(self, kind: MemoryKind) -> int:
        """Unallocated pages in the given pool."""
        return self._capacity[kind] - self._allocated[kind]

    # -- allocation ---------------------------------------------------------------
    def allocate(self, nbytes: float,
                 kind: MemoryKind = MemoryKind.OFF_HEAP) -> list[MemorySegment]:
        """Allocate enough pages for ``nbytes``; raises when the pool is dry."""
        n = self.pages_for(nbytes)
        if n > self.available_pages(kind):
            raise MemoryExhaustedError(
                f"need {n} {kind.value} pages, only "
                f"{self.available_pages(kind)} available")
        segments = []
        for _ in range(n):
            segments.append(MemorySegment(self._next_id, self.page_size, kind))
            self._next_id += 1
        self._allocated[kind] += n
        used = sum(self._allocated.values())
        self.peak_pages = max(self.peak_pages, used)
        return segments

    def release(self, segments: list[MemorySegment]) -> None:
        """Return pages to their pools."""
        for seg in segments:
            if self._allocated[seg.kind] <= 0:
                raise ConfigError("releasing more pages than were allocated")
            self._allocated[seg.kind] -= 1
