"""A Spark-flavoured facade over the GFlink runtime (paper §3.6).

"An important thinking of designing GFlink is to make migration from Flink
to Spark easier" — the engine-facing pieces (CUDAWrapper/CUDAStub, the
producer-consumer GWork scheme, the GStruct off-heap layout) are all
engine-agnostic.  This module proves it: the familiar RDD API, including the
GPU extensions, is a thin adapter over :class:`repro.core.gdst.GDST`.

Semantics follow PySpark conventions: transformations are lazy and return
RDDs; actions (``collect``, ``count``) return plain values; ``cache()``
marks the lineage for in-memory reuse.  The facade carries what
``examples/spark_migration.py`` runs: ``parallelize``, ``cache``,
``count``, ``gpu_map_partitions`` and ``collect``.  Timing for the last
action is available as ``sc.last_job_metrics``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.gdst import GDST
from repro.core.runtime import GFlinkCluster, GFlinkSession


class SparkContext:
    """Driver entry point, Spark style, on a GFlink cluster."""

    def __init__(self, cluster: GFlinkCluster, app_name: str = "spark-app"):
        self.cluster = cluster
        self.app_name = app_name
        self._session = GFlinkSession(cluster, app_id=app_name)
        self.last_job_metrics = None

    # -- RDD creation ------------------------------------------------------------
    def parallelize(self, data: Any, num_slices: Optional[int] = None,
                    element_nbytes: float = 32.0,
                    scale: float = 1.0) -> "RDD":
        """Distribute a driver collection (``sc.parallelize``)."""
        ds = self._session.from_collection(
            data, element_nbytes=element_nbytes, scale=scale,
            parallelism=num_slices)
        return RDD(self, ds)

    def register_kernel(self, spec) -> None:
        """Register a GPU kernel (the GFlink extension carries over)."""
        self._session.register_kernel(spec)

    # -- internal ----------------------------------------------------------------
    def _run(self, result):
        self.last_job_metrics = result.metrics
        return result.value


class RDD:
    """Resilient-Distributed-Dataset-flavoured view of a GDST."""

    def __init__(self, sc: SparkContext, dataset: GDST):
        self.sc = sc
        self._ds = dataset

    def _wrap(self, ds) -> "RDD":
        return RDD(self.sc, ds)

    # -- transformations (lazy) -------------------------------------------------
    def cache(self) -> "RDD":
        """Mark for in-memory reuse across jobs (``rdd.cache()``)."""
        self._ds.persist()
        return self

    persist = cache

    # -- the GFlink GPU extensions (§3.6: the framework suits Spark too) ---------
    def gpu_map_partitions(self, kernel_name: str, **kwargs) -> "RDD":
        return self._wrap(self._ds.gpu_map_partition(kernel_name, **kwargs))

    # -- actions (eager, return plain values) -------------------------------------
    def collect(self) -> list:
        return self.sc._run(self._ds.collect())

    def count(self) -> float:
        return self.sc._run(self._ds.count())
