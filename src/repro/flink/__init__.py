"""A from-scratch in-memory dataflow engine with Flink's architecture.

This package is the CPU substrate the paper extends: a master-slave,
JVM-style in-memory cluster computing engine exposing the DataSet (DST)
abstraction.  It reproduces the architectural features GFlink's design hooks
into:

* **DataSet API** (:mod:`repro.flink.dataset`) — ``map``, ``flat_map``,
  ``filter``, ``map_partition``, ``group_by(...).reduce(...)`` and Flink's
  positional ``group_by(0).sum(1)`` / ``.min(1)`` / ``.max(1)``, ``reduce``,
  ``join``, ``count``, ``collect``, HDFS sources/sinks, and ``persist`` for
  iterative jobs.
* **Logical plan → ExecutionGraph** (:mod:`repro.flink.plan`,
  :mod:`repro.flink.graph`) compiled per job.
* **JobManager / TaskManager / task slots**
  (:mod:`repro.flink.jobmanager`, :mod:`repro.flink.taskmanager`): one
  JobManager on the master coordinates; each worker's TaskManager executes
  subtasks in its slots (default one slot per CPU core).
* **One-element-at-a-time iterator execution model**
  (:mod:`repro.flink.iterators`) with per-element overhead — the very model
  §3.1 of the paper identifies as a mismatch for GPUs.
* **Hash shuffle** with serialization over the network
  (:mod:`repro.flink.shuffle`, :mod:`repro.flink.serialization`).
* **Task-retry fault tolerance** (:mod:`repro.flink.fault`).

Timing is simulated (see :mod:`repro.common.simclock`); functional results
are computed for real so the test-suite asserts answers, not just clock
values.
"""

from repro.flink.config import FlinkConfig, ClusterConfig, CPUSpec
from repro.flink.partition import Partition
from repro.flink.dataset import DataSet, OpCost, vectorized_udf
from repro.flink.runtime import Cluster, FlinkSession, JobResult
from repro.flink.fault import FailureInjector

__all__ = [
    "FlinkConfig",
    "ClusterConfig",
    "CPUSpec",
    "Partition",
    "DataSet",
    "OpCost",
    "vectorized_udf",
    "Cluster",
    "FlinkSession",
    "JobResult",
    "FailureInjector",
]
