"""Tests for the simulated HDFS: namenode placement, datanode I/O, facade."""

import pytest

from repro.common import Environment
from repro.common.errors import ConfigError
from repro.common.network import Network, NetworkConfig
from repro.hdfs import HDFS, DataNode, DiskConfig, NameNode
from repro.obs import Observability

NODES = ["node0", "node1", "node2"]


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def net(env):
    return Network(env, NODES, NetworkConfig(bandwidth_bps=1e9, latency_s=0.0))


@pytest.fixture
def fs(env, net):
    return HDFS(env, NODES, net, replication=2,
                disk=DiskConfig(read_bps=100e6, write_bps=100e6, seek_s=0.0))


def run(env, gen):
    p = env.process(gen)
    return env.run(until=p)


class TestNameNode:
    def test_requires_datanodes(self):
        with pytest.raises(ConfigError):
            NameNode([])

    def test_replication_clamped_to_cluster_size(self):
        nn = NameNode(["a", "b"], replication=5)
        assert nn.replication == 2

    def test_create_duplicate_rejected(self):
        nn = NameNode(NODES)
        nn.create_file("/f")
        with pytest.raises(ConfigError):
            nn.create_file("/f")

    def test_writer_affinity_placement(self):
        nn = NameNode(NODES, replication=2)
        nn.create_file("/f")
        block = nn.allocate_block("/f", 100, None, writer_node="node2")
        assert block.replicas[0] == "node2"
        assert len(set(block.replicas)) == 2

    def test_round_robin_spreads_replicas(self):
        nn = NameNode(NODES, replication=1)
        nn.create_file("/f")
        homes = [nn.allocate_block("/f", 1, None).replicas[0]
                 for _ in range(6)]
        assert homes == ["node0", "node1", "node2"] * 2

    def test_block_ids_unique_and_ordered(self):
        nn = NameNode(NODES)
        nn.create_file("/f")
        blocks = [nn.allocate_block("/f", 1, None) for _ in range(4)]
        assert [b.block_id for b in blocks] == [0, 1, 2, 3]
        assert [b.index for b in blocks] == [0, 1, 2, 3]

    def test_file_size_is_sum_of_blocks(self):
        nn = NameNode(NODES)
        nn.create_file("/f")
        nn.allocate_block("/f", 10, None)
        nn.allocate_block("/f", 30, None)
        assert nn.get_file("/f").nbytes == 40

    def test_missing_file_raises(self):
        nn = NameNode(NODES)
        with pytest.raises(ConfigError):
            nn.get_file("/nope")


class TestDataNode:
    def test_read_charges_disk_time(self, env):
        dn = DataNode(env, "n", DiskConfig(read_bps=100e6, write_bps=50e6,
                                           seek_s=0.01))
        from repro.hdfs.blocks import Block
        block = Block(0, "/f", 0, 100_000_000, payload="data", replicas=["n"])
        run(env, dn.write_block(block))
        assert env.now == pytest.approx(0.01 + 2.0)
        start = env.now
        stored = run(env, dn.read_block(0))
        assert stored.payload == "data"
        assert env.now - start == pytest.approx(0.01 + 1.0)

    def test_read_missing_block_raises(self, env):
        dn = DataNode(env, "n")
        with pytest.raises(ConfigError):
            run(env, dn.read_block(42))

    def test_spindle_serialization(self, env):
        dn = DataNode(env, "n", DiskConfig(read_bps=100e6, seek_s=0.0,
                                           spindles=1))
        from repro.hdfs.blocks import Block
        for i in range(2):
            b = Block(i, "/f", i, 100_000_000, payload=i, replicas=["n"])
            dn._blocks[b.block_id] = b
        done = []

        def reader(bid):
            yield from dn.read_block(bid)
            done.append(env.now)

        env.process(reader(0))
        env.process(reader(1))
        env.run()
        assert done == pytest.approx([1.0, 2.0])


class TestHDFSFacade:
    def test_write_then_read_roundtrip(self, env, fs):
        chunks = [([1, 2, 3], 100), ([4, 5], 50)]
        status = run(env, fs.write("/data", chunks, writer_node="node0"))
        assert status.block_count == 2
        assert status.nbytes == 150
        payloads = run(env, fs.read_file("/data", at_node="node0"))
        assert payloads == [[1, 2, 3], [4, 5]]

    def test_replication_persists_on_all_replicas(self, env, fs):
        run(env, fs.write("/d", [("x", 10)], writer_node="node1"))
        block = fs.locate("/d")[0]
        assert len(block.replicas) == 2
        for node in block.replicas:
            assert fs.datanodes[node].has_block(block.block_id)

    def test_local_read_faster_than_remote(self, env, net):
        fs = HDFS(env, NODES, net, replication=1,
                  disk=DiskConfig(read_bps=100e6, write_bps=100e6, seek_s=0.0))
        run(env, fs.write("/d", [("payload", 100_000_000)],
                          writer_node="node0"))
        block = fs.locate("/d")[0]
        assert block.replicas == ["node0"]

        t0 = env.now
        run(env, fs.read_block(block, at_node="node0"))
        local_time = env.now - t0

        t0 = env.now
        run(env, fs.read_block(block, at_node="node2"))
        remote_time = env.now - t0
        assert remote_time > local_time
        # Remote pays disk (1s) + wire (0.1s at 1 GB/s for 100 MB).
        assert remote_time == pytest.approx(local_time + 0.1)

    def test_empty_block_reports_progress_alike_local_or_remote(self, env,
                                                                net):
        """A zero-byte block fires every progress mark at 0.0 whether the
        replica is on the reading node (disk) or not (disk, then wire)."""
        fs = HDFS(env, NODES, net, replication=1,
                  disk=DiskConfig(read_bps=100e6, write_bps=100e6, seek_s=0.0))
        run(env, fs.write("/empty", [("", 0)], writer_node="node0"))
        block = fs.locate("/empty")[0]
        seen = {}
        for at_node in ("node0", "node2"):
            seen[at_node] = []
            run(env, fs.read_block(block, at_node,
                                   progress=([0, 5, 10], seen[at_node].append)))
        assert seen["node0"] == seen["node2"] == [0.0, 0.0, 0.0]
        # ... and so does a bare transfer, over the wire or on loopback.
        for dst in ("node1", "node0"):
            wire = []
            run(env, net.transfer("node0", dst, 0, ([0.0, 3.0], wire.append)))
            assert wire == [0.0, 0.0]

    def test_block_reads_count_what_the_traced_counter_counts(self, env,
                                                              net):
        """HDFS's own per-locality read count is the model state the
        ``hdfs.reads`` counter derives from the trace: a completed read
        counts once, a read that raises in its span does not."""
        obs = Observability(env, tracing=True)
        fs = HDFS(env, NODES, net, replication=1,
                  disk=DiskConfig(read_bps=100e6, write_bps=100e6, seek_s=0.0),
                  obs=obs)
        run(env, fs.write("/d", [("a", 100), ("b", 100)],
                          writer_node="node0"))
        first, second = fs.locate("/d")
        run(env, fs.read_block(first, at_node="node0"))
        run(env, fs.read_block(first, at_node="node1"))
        run(env, fs.read_block(second, at_node="node2"))
        fs.datanodes["node0"].drop_block(second.block_id)
        with pytest.raises(ConfigError):
            run(env, fs.read_block(second, at_node="node0"))
        assert fs.block_reads == {"local": 1, "remote": 2}
        assert {loc: obs.registry.value("hdfs.reads", locality=loc)
                for loc in fs.block_reads} == fs.block_reads

    def test_delete_removes_replicas(self, env, fs):
        run(env, fs.write("/d", [("x", 10)]))
        block = fs.locate("/d")[0]
        fs.delete("/d")
        assert not fs.exists("/d")
        for dn in fs.datanodes.values():
            assert not dn.has_block(block.block_id)

    def test_byte_accounting(self, env, fs):
        run(env, fs.write("/d", [("x", 1000)], writer_node="node0"))
        # replication=2 -> two replicas each write 1000 nominal bytes
        assert fs.total_bytes_written() == 2000
        run(env, fs.read_file("/d", at_node="node0"))
        assert fs.total_bytes_read() == 1000

    def test_negative_chunk_size_rejected(self, env, fs):
        with pytest.raises(ConfigError):
            run(env, fs.write("/d", [("x", -5)]))
