"""GFlink cluster runtime and session.

``GFlinkCluster`` is a :class:`~repro.flink.runtime.Cluster` whose workers
carry a :class:`~repro.core.gpumanager.GPUManager` each — "when the GFlink
system is started, it brings up one JobManager in the master, and one
TaskManager and GPUManager in every worker" (§3.3).  Everything else — HDFS,
the DAG scheduler, JobManager, TaskManagers — is inherited unchanged, which
is the paper's compatibility claim in code.

``GFlinkSession`` is the driver facade: it hands out :class:`~repro.core.gdst.GDST`
datasets, owns the application id that keys GPU cache regions, and augments
job metrics with GPU counters.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.common.simclock import Environment
from repro.core.gdst import GDST
from repro.core.gpumanager import GPUManager, GPUManagerConfig
from repro.flink.config import ClusterConfig
from repro.flink.fault import FailureInjector
from repro.flink.plan import Operator
from repro.flink.runtime import Cluster, FlinkSession
from repro.gpu.kernel import KernelRegistry, KernelSpec

_app_ids = itertools.count()


class GFlinkCluster(Cluster):
    """A heterogeneous CPU-GPU cluster: Flink runtime + per-worker GPUManagers."""

    def __init__(self, config: Optional[ClusterConfig] = None,
                 env: Optional[Environment] = None,
                 registry: Optional[KernelRegistry] = None,
                 gpu_config: Optional[GPUManagerConfig] = None):
        super().__init__(config, env)
        self.registry = registry or KernelRegistry()
        self.gpu_config = gpu_config or GPUManagerConfig()
        if self.config.gpus_per_worker:
            for worker in self.workers.values():
                if worker.gpumanager is None:
                    worker.gpumanager = GPUManager(
                        self.env, worker.name, self.config.gpus_per_worker,
                        self.registry, self.gpu_config, obs=self.obs)

    def _make_worker(self, name: str):
        """Elastic joiners get a GPUManager too (initial workers are armed
        by ``__init__`` above — the kernel registry does not exist yet while
        the base constructor builds them)."""
        worker = super()._make_worker(name)
        registry = getattr(self, "registry", None)
        if registry is not None and self.config.gpus_per_worker:
            worker.gpumanager = GPUManager(
                self.env, name, self.config.gpus_per_worker,
                registry, self.gpu_config, obs=self.obs)
        return worker

    @property
    def default_gpu_parallelism(self) -> int:
        """Default parallelism for one-partition-per-GPU datasets.

        Pinned to the *configured* shape (workers x GPUs per worker), not
        live membership, for the same reason as
        :attr:`~repro.flink.runtime.Cluster.default_parallelism`: partition
        counts decide per-partition kernel partials (block sums, bincounts),
        so counting joiners' devices would change results under churn.
        Joiners add capacity for placing the pinned partitions, not more
        partitions.
        """
        return max(self.config.n_workers * len(self.config.gpus_per_worker),
                   1)

    # -- cluster-wide GPU metrics ---------------------------------------------------
    def gpu_managers(self) -> list[GPUManager]:
        return [w.gpumanager for w in self.workers.values()
                if w.gpumanager is not None]

    def total_kernel_seconds(self) -> float:
        """Kernel time across every GPU in the cluster."""
        return sum(gm.kernel_seconds() for gm in self.gpu_managers())

    def total_pcie_bytes(self) -> int:
        """H2D+D2H bytes across every GPU in the cluster."""
        return sum(gm.pcie_bytes() for gm in self.gpu_managers())

    def release_app(self, app_id: str) -> None:
        """Release an application's GPU cache regions on all workers."""
        for gm in self.gpu_managers():
            gm.release_app(app_id)


class GFlinkSession(FlinkSession):
    """Driver session on a GFlink cluster.

    ``app_id`` identifies the application for GPU cache ownership: iterative
    drivers run many jobs under one app, sharing cached partitions (the
    paper's per-job cache region — a Flink iterative job maps to a session
    here, see DESIGN.md §3).
    """

    def __init__(self, cluster: GFlinkCluster,
                 failure_injector: Optional[FailureInjector] = None,
                 app_id: Optional[str] = None):
        super().__init__(cluster, failure_injector=failure_injector)
        self.app_id = app_id or f"app-{next(_app_ids)}"

    # -- GDST sources ------------------------------------------------------------
    def _as_gdst(self, ds) -> GDST:
        return GDST(self, ds.op)

    def from_collection(self, elements: Any, element_nbytes: float = 32.0,
                        scale: float = 1.0,
                        parallelism: Optional[int] = None) -> GDST:
        """A GDST from a driver-side collection."""
        return self._as_gdst(super().from_collection(
            elements, element_nbytes, scale=scale, parallelism=parallelism))

    def read_hdfs(self, path: str, element_nbytes: float,
                  scale: float = 1.0,
                  parallelism: Optional[int] = None) -> GDST:
        """A GDST backed by an HDFS file."""
        return self._as_gdst(super().read_hdfs(
            path, element_nbytes, scale=scale, parallelism=parallelism))

    # -- kernels -----------------------------------------------------------------
    def register_kernel(self, spec: KernelSpec) -> KernelSpec:
        """Register a CUDA kernel ("provide CUDA kernels", §3.5)."""
        return self.cluster.registry.register(spec)

    # -- execution with GPU accounting ----------------------------------------------
    def execute_job(self, sink: Operator, job_name: str = "job"):
        cluster = self.cluster
        is_gflink = isinstance(cluster, GFlinkCluster)
        kernel0 = cluster.total_kernel_seconds() if is_gflink else 0.0
        pcie0 = cluster.total_pcie_bytes() if is_gflink else 0
        result = yield from super().execute_job(sink, job_name=job_name)
        if is_gflink:
            # Cluster-wide deltas: under concurrent applications these
            # include neighbours' traffic; per-app isolation would need
            # per-work attribution, which the benchmarks do not require.
            result.metrics.gpu_kernel_s = (cluster.total_kernel_seconds()
                                           - kernel0)
            result.metrics.pcie_bytes = cluster.total_pcie_bytes() - pcie0
        return result

    def release_gpu_cache(self) -> None:
        """End-of-application hook: release this app's GPU cache regions."""
        cluster = self.cluster
        if isinstance(cluster, GFlinkCluster):
            cluster.release_app(self.app_id)
