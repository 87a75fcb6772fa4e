"""Compatibility facades for other engines' APIs.

§3.6 of the paper ("Discussion of Migration from Flink to Spark") argues the
GFlink design carries over to Spark: both are JVM master-slave MapReduce
engines, CUDAWrapper/CUDAStub are engine-agnostic, and the producer-consumer
scheme decouples the engine from the GPUs.  :mod:`repro.compat.spark`
demonstrates the claim in code: an RDD-style API (``parallelize``,
``cache``, ``count``, ``collect`` plus the GFlink GPU extension
``gpu_map_partitions``) running on the very same cluster runtime,
GPUManagers included.
"""

from repro.compat.spark import RDD, SparkContext

__all__ = ["RDD", "SparkContext"]
