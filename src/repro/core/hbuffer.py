"""HBuffer: off-heap direct buffers, the GFlink-side half of the transfer path.

§4.1.2: "GFlink caches data in the off-heap memory (direct buffers in Java).
The contents of direct buffers reside outside of the normal garbage-collected
heap ... local libraries can get the user space's virtual address and then
read or write the buffer."  An :class:`HBuffer` therefore:

* has a stable "address" (is ``dma_capable``) when off-heap — the DMA engine
  can read it directly, skipping the heap→native copy of the naive path;
* can be page-locked (``cudaHostRegister``) for asynchronous transfers;
* knows its nominal byte size independently of the real sample it carries
  (dual-scale execution, DESIGN.md §2);
* splits into page-sized **blocks** for the block-processing model — §5.1:
  "the size of a block is set the same as that of a memory page ... the
  content of a GStruct can not be stored across pages", which we honor by
  flooring the per-block struct count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Type

import numpy as np

from repro.common.errors import LayoutError
from repro.core.gstruct import DataLayout, GStruct
from repro.flink.payload import real_len


@dataclass
class Block:
    """One page-sized slice of an HBuffer (unit of transfer and caching)."""

    index: int
    elements: Any            # real payload slice
    nominal_count: float     # elements the timing model charges for
    nbytes: int              # nominal bytes (<= page/block size)

    @property
    def real_count(self) -> int:
        return real_len(self.elements)


class HBuffer:
    """A host-side data region as GFlink manages it."""

    def __init__(self, elements: Any, element_nbytes: float,
                 scale: float = 1.0, off_heap: bool = True,
                 pinned: bool = False,
                 struct_cls: Optional[Type[GStruct]] = None,
                 layout: DataLayout = DataLayout.AOS,
                 cacheable: bool = True):
        if element_nbytes < 0:
            raise LayoutError(f"element_nbytes must be >= 0: {element_nbytes}")
        self.elements = elements
        self.element_nbytes = float(element_nbytes)
        self.scale = float(scale)
        self.off_heap = off_heap
        self.pinned = pinned
        self.struct_cls = struct_cls
        self.layout = layout
        # Per-buffer cache eligibility (§4.2.2 marks buffers Cache
        # individually): iteration-varying operands — KMeans centers, the
        # SpMV vector — must be re-uploaded every submission even when the
        # work's other inputs are cached.
        self.cacheable = cacheable

    # -- constructors ------------------------------------------------------------
    @classmethod
    def for_struct(cls, struct_cls: Type[GStruct], elements: np.ndarray,
                   scale: float = 1.0,
                   layout: DataLayout = DataLayout.AOS) -> "HBuffer":
        """An off-heap buffer whose bytes follow ``struct_cls``'s layout."""
        return cls(elements, element_nbytes=struct_cls.itemsize(),
                   scale=scale, off_heap=True, struct_cls=struct_cls,
                   layout=layout)

    @classmethod
    def heap_objects(cls, elements: Any, element_nbytes: float,
                     scale: float = 1.0) -> "HBuffer":
        """A JVM-heap collection of objects (the naive path's starting point).

        Not DMA-capable: the GC may move it, so any GPU transfer must first
        convert/copy it to native memory (§3.1).
        """
        return cls(elements, element_nbytes=element_nbytes, scale=scale,
                   off_heap=False)

    # -- sizes ----------------------------------------------------------------
    @property
    def real_count(self) -> int:
        return real_len(self.elements)

    @property
    def nominal_count(self) -> float:
        return self.real_count * self.scale

    @property
    def nbytes(self) -> float:
        """Nominal byte size — what transfers are charged for."""
        return self.nominal_count * self.element_nbytes

    @property
    def dma_capable(self) -> bool:
        """Off-heap buffers have stable addresses the DMA engine can use."""
        return self.off_heap

    # -- block splitting -----------------------------------------------------------
    def elements_per_block(self, block_nbytes: int) -> int:
        """Whole structs per block (§5.1: no struct straddles a page)."""
        if self.element_nbytes <= 0:
            return max(self.real_count, 1)
        per = int(block_nbytes // self.element_nbytes)
        if per < 1:
            raise LayoutError(
                f"block size {block_nbytes} smaller than one element "
                f"({self.element_nbytes} B)")
        return per

    def _real_per_block(self, block_nbytes: int) -> int:
        # Nominal elements per block is bounded by the page; real elements
        # per block shrink proportionally so every block is page-sized in
        # nominal terms.
        return max(1, int(self.elements_per_block(block_nbytes) / self.scale))

    def n_blocks(self, block_nbytes: int) -> int:
        """``len(self.split_blocks(block_nbytes))``, without building them."""
        n = self.real_count
        if n == 0:
            return 0
        return -(-n // self._real_per_block(block_nbytes))

    def split_blocks(self, block_nbytes: int) -> List[Block]:
        """Split into page-sized blocks of whole elements.

        The *nominal* element count is spread over the blocks: each block
        carries nominal ``real_count_of_block * scale`` elements, so the sum
        over blocks equals the buffer's nominal size.
        """
        n = self.real_count
        if n == 0:
            return []
        real_per_block = self._real_per_block(block_nbytes)
        blocks: List[Block] = []
        for index, lo in enumerate(range(0, n, real_per_block)):
            hi = min(lo + real_per_block, n)
            chunk = self.elements[lo:hi]
            nominal = (hi - lo) * self.scale
            blocks.append(Block(index=index, elements=chunk,
                                nominal_count=nominal,
                                nbytes=int(nominal * self.element_nbytes)))
        return blocks

    def derive(self, elements: Any,
               element_nbytes: Optional[float] = None) -> "HBuffer":
        """A new buffer with the same placement flags and new contents."""
        return HBuffer(
            elements,
            element_nbytes=self.element_nbytes
            if element_nbytes is None else element_nbytes,
            scale=self.scale, off_heap=self.off_heap, pinned=self.pinned,
            struct_cls=self.struct_cls, layout=self.layout)

    def __repr__(self) -> str:  # pragma: no cover
        where = "off-heap" if self.off_heap else "heap"
        return (f"<HBuffer {where} n={self.real_count} "
                f"(nominal {self.nominal_count:.3g}, {self.nbytes:.3g} B)>")
