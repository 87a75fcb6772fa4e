"""GFlink reproduction.

A from-scratch implementation of *GFlink: An In-Memory Computing
Architecture on Heterogeneous CPU-GPU Clusters for Big Data* (Chen, Li,
Ouyang, Zeng, Li — ICPP 2016 / IEEE TPDS 29(6) 2018), including every
substrate it runs on: a Flink-like in-memory dataflow engine, a simulated
HDFS, and calibrated CUDA GPU models, all over a discrete-event simulation
(real results, modeled time — see DESIGN.md).

Subpackages
-----------
``repro.common``
    Discrete-event kernel, resources, network model, deterministic RNG.
``repro.hdfs``
    Namenode/datanodes with replication, locality and failover.
``repro.flink``
    The CPU substrate: DataSet API, JobManager/TaskManagers, shuffle,
    operator chaining, fault tolerance, reports.
``repro.gpu``
    CUDA device/stream/DMA/kernel models for the paper's testbed GPUs.
``repro.core``
    The paper's contribution: GStruct, HBuffer, the JVM↔GPU channels,
    GMemoryManager (GPU cache), GStreamManager (3-stage pipeline),
    Algorithms 5.1/5.2, GDST, the GFlink runtime, the §6.3 cost model.
``repro.workloads``
    The evaluation benchmarks (Table 1), CPU and GPU drivers.
``repro.compat``
    §3.6's Flink→Spark migration: an RDD facade over the same runtime.

Entry points: :class:`repro.core.GFlinkCluster` /
:class:`repro.core.GFlinkSession`, or ``python -m repro`` for the CLI.
"""

__version__ = "1.0.0"
