"""Datanode: a node-local disk with bandwidth-limited reads and writes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.resources import Resource
from repro.common.simclock import Environment, Event
from repro.hdfs.blocks import Block


@dataclass(frozen=True)
class DiskConfig:
    """Disk calibration (commodity SATA, per DESIGN.md §5)."""

    read_bps: float = 150e6
    write_bps: float = 120e6
    seek_s: float = 4e-3  # average positioning time charged per block access
    spindles: int = 1     # concurrent block streams the disk can serve


class DataNode:
    """Holds block replicas for one cluster node and meters disk time."""

    def __init__(self, env: Environment, name: str,
                 disk: DiskConfig | None = None):
        self.env = env
        self.name = name
        self.disk = disk or DiskConfig()
        if self.disk.spindles < 1:
            raise ConfigError("spindles must be >= 1")
        self._io = Resource(env, capacity=self.disk.spindles)
        self._blocks: Dict[int, Block] = {}
        self.bytes_read = 0
        self.bytes_written = 0
        #: Failure injection: a dead datanode serves no reads or writes;
        #: readers fail over to another replica.
        self.alive = True

    def fail(self) -> None:
        """Simulate a datanode crash (replicas become unreachable)."""
        self.alive = False

    def recover(self) -> None:
        """Bring the datanode back (its replicas are intact)."""
        self.alive = True

    # -- metadata --------------------------------------------------------------
    def has_block(self, block_id: int) -> bool:
        """True if this node stores a replica of ``block_id``."""
        return block_id in self._blocks

    # -- simulated I/O -----------------------------------------------------------
    def write_block(self, block: Block) -> Generator[Event, None, None]:
        """Simulation process: persist one replica of ``block`` here."""
        with self._io.request() as req:
            yield req
            yield self.env.timeout(
                self.disk.seek_s + block.nbytes / self.disk.write_bps)
            self._blocks[block.block_id] = block
            self.bytes_written += block.nbytes

    def read_block(self, block_id: int,
                   progress: Optional[
                       Tuple[Sequence[float], Callable[[float], None]]
                   ] = None) -> Generator[Event, None, Block]:
        """Simulation process: read a replica; returns the :class:`Block`.

        ``progress``, when given, is ``(marks, callback)``: ``marks`` are
        cumulative byte offsets within the block and ``callback(cum)`` is
        invoked as the read crosses each one.  The linear transfer portion
        is charged in per-mark slices whose sum equals the single-shot
        charge, so total disk time is identical with or without it — the
        callback only exposes *when* a byte prefix is resident (the
        pipelined executor's streaming source publishes on it).
        """
        if not self.alive:
            raise ConfigError(f"datanode {self.name!r} is down")
        if block_id not in self._blocks:
            raise ConfigError(
                f"datanode {self.name!r} holds no replica of block {block_id}")
        block = self._blocks[block_id]
        with self._io.request() as req:
            yield req
            if progress is None:
                yield self.env.timeout(
                    self.disk.seek_s + block.nbytes / self.disk.read_bps)
            else:
                marks, callback = progress
                yield self.env.timeout(self.disk.seek_s)
                done = 0.0
                for cum in marks:
                    cum = min(float(cum), float(block.nbytes))
                    if cum > done:
                        yield self.env.timeout(
                            (cum - done) / self.disk.read_bps)
                        done = cum
                    callback(done)
                if done < block.nbytes:
                    yield self.env.timeout(
                        (block.nbytes - done) / self.disk.read_bps)
            self.bytes_read += block.nbytes
        return block

    def drop_block(self, block_id: int) -> None:
        """Remove a replica (simulated disk failure / decommission)."""
        self._blocks.pop(block_id, None)
