"""HDFS block metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class Block:
    """A unit of HDFS storage.

    Attributes
    ----------
    block_id
        Globally unique id assigned by the namenode.
    path
        The file this block belongs to.
    index
        Position of the block within the file.
    nbytes
        Nominal size in bytes — what the timing model charges for.  May be
        much larger than the in-memory footprint of ``payload`` when running
        scaled-down data (see DESIGN.md §2).
    payload
        The actual data (list / NumPy array / str ...), stored on every
        replica identically.
    replicas
        Names of the datanodes holding a replica.
    """

    block_id: int
    path: str
    index: int
    nbytes: int
    payload: Any
    replicas: list[str] = field(default_factory=list)

    def is_local_to(self, node: str) -> bool:
        """True if ``node`` holds a replica of this block."""
        return node in self.replicas
