"""Partitions: the unit of distributed data.

A partition carries **real elements** (a Python list or NumPy array) used for
functional execution, and **nominal** counts/sizes used by the timing model.
``scale = nominal_count / real_count`` lets a 100 k-element sample stand in
for the paper's 210 M-point dataset: compute and I/O time are charged for the
nominal size while results are computed on the sample (DESIGN.md §2).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.common.errors import ConfigError
from repro.flink.payload import real_len


class Partition:
    """One shard of a DataSet, resident on one worker.

    Attributes
    ----------
    index
        Position of this partition within its dataset.
    elements
        Real payload: list or NumPy array.
    element_nbytes
        Nominal serialized size per element (drives I/O and shuffle time).
    scale
        Nominal elements per real element (>= 0).  ``nominal_count`` and
        ``nominal_nbytes`` are derived.
    worker
        Name of the worker currently holding the partition (None while the
        partition is only a plan-time description).
    """

    __slots__ = ("index", "elements", "element_nbytes", "scale", "worker")

    def __init__(self, index: int, elements: Any, element_nbytes: float,
                 scale: float = 1.0, worker: str | None = None):
        if element_nbytes < 0:
            raise ConfigError(f"element_nbytes must be >= 0: {element_nbytes}")
        if scale < 0:
            raise ConfigError(f"scale must be >= 0: {scale}")
        self.index = index
        self.elements = elements
        self.element_nbytes = float(element_nbytes)
        self.scale = float(scale)
        self.worker = worker

    @property
    def real_count(self) -> int:
        """Number of real (in-memory) elements."""
        return real_len(self.elements)

    @property
    def nominal_count(self) -> float:
        """Element count the timing model charges for."""
        return self.real_count * self.scale

    @property
    def nominal_nbytes(self) -> float:
        """Byte size the timing model charges for."""
        return self.nominal_count * self.element_nbytes

    def derive(self, elements: Any, element_nbytes: float | None = None,
               scale: float | None = None) -> "Partition":
        """A new partition with this one's metadata and new elements."""
        return Partition(
            index=self.index,
            elements=elements,
            element_nbytes=self.element_nbytes
            if element_nbytes is None else element_nbytes,
            scale=self.scale if scale is None else scale,
            worker=self.worker,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Partition {self.index} n={self.real_count} "
                f"(nominal {self.nominal_count:.3g}) on {self.worker}>")


def split_evenly(elements: Sequence[Any] | np.ndarray, n: int,
                 element_nbytes: float, scale: float = 1.0) -> list[Partition]:
    """Split ``elements`` into ``n`` near-equal partitions.

    NumPy arrays are split with views (no copies, per the HPC guide); lists
    are sliced.
    """
    if n < 1:
        raise ConfigError(f"partition count must be >= 1, got {n}")
    total = real_len(elements)
    bounds = [round(i * total / n) for i in range(n + 1)]
    parts = []
    for i in range(n):
        lo, hi = bounds[i], bounds[i + 1]
        parts.append(Partition(index=i, elements=elements[lo:hi],
                               element_nbytes=element_nbytes, scale=scale))
    return parts
