"""Simulated Hadoop Distributed File System.

The paper's workloads read their input from HDFS in the first iteration and
write results back in the last one; those I/O phases dominate the first/last
iteration timings in Fig. 7 and cap WordCount's speedup in Fig. 5c.  This
package provides the minimum HDFS semantics those experiments depend on:

* a :class:`~repro.hdfs.namenode.NameNode` holding file→block metadata and a
  round-robin-with-replication placement policy;
* :class:`~repro.hdfs.datanode.DataNode` s with bandwidth-limited disks;
* a :class:`~repro.hdfs.filesystem.HDFS` facade with locality-aware reads
  (local replica preferred; remote reads pay network time).

Payloads are real Python/NumPy objects; the *nominal* byte size used for
timing is tracked separately so scaled-down data can stand in for the paper's
multi-gigabyte inputs (see DESIGN.md §2).
"""

from repro.hdfs.blocks import Block
from repro.hdfs.namenode import NameNode, FileStatus
from repro.hdfs.datanode import DataNode, DiskConfig
from repro.hdfs.filesystem import HDFS

__all__ = [
    "Block",
    "NameNode",
    "FileStatus",
    "DataNode",
    "DiskConfig",
    "HDFS",
]
