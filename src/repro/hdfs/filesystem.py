"""HDFS facade: locality-aware reads, replicated writes."""

from __future__ import annotations

from typing import Generator, Iterable, List, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.network import Network
from repro.common.simclock import Environment, Event
from repro.hdfs.blocks import Block
from repro.hdfs.datanode import DataNode, DiskConfig
from repro.hdfs.namenode import NameNode, FileStatus
from repro.obs import OFF, Observability


class HDFS:
    """The distributed filesystem as seen by the dataflow runtime.

    Chunks are ``(payload, nominal_bytes)`` pairs; each chunk becomes one
    block.  Writes persist every replica (pipelined in parallel, like the
    HDFS write pipeline); reads prefer a node-local replica and otherwise
    stream the block from the nearest (first) replica over the network.
    """

    def __init__(self, env: Environment, node_names: Sequence[str],
                 network: Network, replication: int = 2,
                 disk: DiskConfig | None = None, obs: Observability = OFF):
        self.env = env
        self.network = network
        self.namenode = NameNode(list(node_names), replication=replication)
        self.disk = disk  # shared spec; elastic datanodes reuse it
        self.datanodes = {name: DataNode(env, name, disk=disk)
                          for name in node_names}
        # Block reads/writes are spans on the acting node's "hdfs" lane; the
        # read/write counters derive from them.
        self.obs = obs
        #: Completed block reads by locality: model state (the autoscaler's
        #: remote-read fraction), the same count ``hdfs.reads`` derives.
        self.block_reads = {"local": 0, "remote": 0}

    # -- elastic membership -------------------------------------------------------
    def add_datanode(self, name: str) -> DataNode:
        """Bring up a datanode on a newly joined worker (metadata-speed)."""
        if name in self.datanodes:
            raise ConfigError(f"datanode {name!r} already exists")
        self.namenode.add_datanode(name)
        node = DataNode(self.env, name, disk=self.disk)
        self.datanodes[name] = node
        return node

    # -- metadata ---------------------------------------------------------------
    def exists(self, path: str) -> bool:
        """True if ``path`` exists."""
        return self.namenode.exists(path)

    def status(self, path: str) -> FileStatus:
        """File status (blocks, sizes) for ``path``."""
        return self.namenode.get_file(path)

    def locate(self, path: str) -> List[Block]:
        """The block list of ``path`` (metadata only, no time charged)."""
        return list(self.namenode.get_file(path).blocks)

    def delete(self, path: str) -> None:
        """Remove ``path`` and drop all replicas (metadata-speed operation)."""
        status = self.namenode.delete(path)
        for block in status.blocks:
            for node in block.replicas:
                self.datanodes[node].drop_block(block.block_id)

    # -- simulated I/O --------------------------------------------------------------
    def write(self, path: str, chunks: Iterable[Tuple[object, int]],
              writer_node: str | None = None) -> Generator[Event, None, FileStatus]:
        """Simulation process: create ``path`` from ``chunks``.

        Each chunk is written to all its replicas; replica writes for one
        block proceed in parallel (the HDFS pipeline overlaps them), block
        writes are sequential as a single writer streams the file.
        """
        status = self.namenode.create_file(path)
        for payload, nbytes in chunks:
            if nbytes < 0:
                raise ConfigError(f"negative block size: {nbytes}")
            block = self.namenode.allocate_block(
                path, nbytes, payload, writer_node=writer_node)
            writes = []
            for i, node in enumerate(block.replicas):
                writes.append(self.env.process(
                    self._write_replica(block, node, writer_node, first=i == 0),
                    name=f"hdfs-write-{path}-{block.index}-{node}"))
            yield self.env.all_of(writes)
        return status

    def append_block(self, path: str, payload: object, nbytes: int,
                     writer_node: str | None = None
                     ) -> Generator[Event, None, Block]:
        """Simulation process: append one block to an existing file.

        Used by parallel sinks: the file is created once (metadata), then
        each sink subtask appends its partition as a block from its worker.
        """
        if nbytes < 0:
            raise ConfigError(f"negative block size: {nbytes}")
        block = self.namenode.allocate_block(
            path, nbytes, payload, writer_node=writer_node)
        writes = [
            self.env.process(
                self._write_replica(block, node, writer_node, first=i == 0),
                name=f"hdfs-append-{path}-{block.index}-{node}")
            for i, node in enumerate(block.replicas)
        ]
        yield self.env.all_of(writes)
        return block

    def _write_replica(self, block: Block, node: str,
                       writer_node: str | None,
                       first: bool) -> Generator[Event, None, None]:
        with self.obs.span("hdfs.write", node, "hdfs", nbytes=block.nbytes,
                           block=block.index, replica=not first):
            # Writer → replica network hop (free if the replica is the writer).
            if writer_node is not None and writer_node != node:
                yield from self.network.transfer(writer_node, node,
                                                 block.nbytes)
            yield from self.datanodes[node].write_block(block)

    def read_block(self, block: Block, at_node: str,
                   progress=None) -> Generator[Event, None, object]:
        """Simulation process: read one block's payload from ``at_node``.

        Charges local disk time if a live replica is local; otherwise disk
        time on the first live remote replica plus a network transfer to
        ``at_node``.  Dead datanodes are skipped (replica failover); when no
        live replica remains the read fails.

        ``progress`` is an optional ``(marks, callback)`` pair (cumulative
        byte offsets within the block); ``callback(cum)`` fires as each
        prefix becomes resident *at* ``at_node`` — during the disk read for
        a local replica, during the network leg for a remote one.  Charges
        are sliced, never added: total time is identical either way.
        """
        live = [node for node in block.replicas
                if self.datanodes[node].alive]
        if not live:
            raise ConfigError(
                f"no live replica of block {block.block_id} "
                f"(replicas: {block.replicas})")
        local = at_node in live
        with self.obs.span("hdfs.read", at_node, "hdfs", nbytes=block.nbytes,
                           block=block.index, local=local):
            if local:
                stored = yield from self.datanodes[at_node].read_block(
                    block.block_id, progress)
            else:
                source = live[0]
                stored = yield from self.datanodes[source].read_block(
                    block.block_id)
                yield from self.network.transfer(source, at_node,
                                                 block.nbytes, progress)
        self.block_reads["local" if local else "remote"] += 1
        return stored.payload

    def read_file(self, path: str,
                  at_node: str) -> Generator[Event, None, List[object]]:
        """Simulation process: read all blocks of ``path`` sequentially."""
        payloads = []
        for block in self.locate(path):
            payload = yield from self.read_block(block, at_node)
            payloads.append(payload)
        return payloads

    def repair(self, failed_node: str) -> Generator[Event, None, int]:
        """Simulation process: re-replicate blocks that lost a replica on
        ``failed_node`` (the namenode's under-replication repair).

        Each affected block is copied from a surviving replica to a live
        node not already holding it, paying disk read + network + disk
        write.  Returns the number of blocks repaired.
        """
        repaired = 0
        for path in self.namenode.list_files():
            for block in self.namenode.get_file(path).blocks:
                if failed_node not in block.replicas:
                    continue
                live = [n for n in block.replicas
                        if n != failed_node and self.datanodes[n].alive]
                if not live:
                    continue  # unrecoverable: no surviving replica
                candidates = [n for n in self.datanodes
                              if self.datanodes[n].alive
                              and n not in block.replicas]
                if not candidates:
                    continue
                source, target = live[0], candidates[0]
                yield from self.datanodes[source].read_block(block.block_id)
                yield from self.network.transfer(source, target,
                                                 block.nbytes)
                yield from self.datanodes[target].write_block(block)
                block.replicas.remove(failed_node)
                block.replicas.append(target)
                repaired += 1
        return repaired

    def decommission(self, node: str) -> Generator[Event, None, int]:
        """Simulation process: gracefully retire ``node``'s datanode.

        The mirror image of :meth:`repair`: the node is removed from new-
        block placement first, then every replica it holds is *copied off*
        — read from the (still live) retiring node, shipped to a live node
        not already holding the block, written there — before the node
        goes away.  Unlike a failure nothing is ever under-replicated.
        Blocks with no eligible target simply shrink by one replica (their
        surviving copies still serve reads).  Returns blocks moved.
        """
        self.namenode.remove_datanode(node)
        moved = 0
        retiring = self.datanodes.get(node)
        for path in self.namenode.list_files():
            for block in self.namenode.get_file(path).blocks:
                if node not in block.replicas:
                    continue
                live_others = [n for n in block.replicas
                               if n != node and self.datanodes[n].alive]
                candidates = [n for n in self.datanodes
                              if n != node and self.datanodes[n].alive
                              and n not in block.replicas]
                if not candidates:
                    if live_others:
                        block.replicas.remove(node)
                    continue
                target = candidates[0]
                if retiring is not None and retiring.alive:
                    source = node
                elif live_others:
                    source = live_others[0]
                else:
                    continue  # lost mid-drain with no surviving copy
                with self.obs.span("hdfs.decommission", target, "hdfs",
                                   nbytes=block.nbytes, block=block.index):
                    yield from self.datanodes[source].read_block(
                        block.block_id)
                    yield from self.network.transfer(source, target,
                                                     block.nbytes)
                    yield from self.datanodes[target].write_block(block)
                block.replicas.remove(node)
                block.replicas.append(target)
                moved += 1
        return moved

    # -- observability ----------------------------------------------------------
    def total_bytes_read(self) -> int:
        """Disk bytes read across all datanodes."""
        return sum(dn.bytes_read for dn in self.datanodes.values())

    def total_bytes_written(self) -> int:
        """Disk bytes written across all datanodes."""
        return sum(dn.bytes_written for dn in self.datanodes.values())
