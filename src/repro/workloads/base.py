"""Shared workload framework: prepare → iterate → write, with timing capture."""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import DEFAULT_SEED, generator
from repro.core.runtime import GFlinkSession
from repro.flink.jobmanager import JobMetrics
from repro.flink.runtime import Cluster
from repro.gpu.kernel import KernelRegistry, KernelSpec


def ensure_kernel(registry: KernelRegistry, spec: KernelSpec) -> None:
    """Register ``spec`` unless a kernel with that name already exists."""
    if spec.name not in registry:
        registry.register(spec)


def even_chunk_sizes(total: int, n_chunks: int) -> List[int]:
    """Split ``total`` elements into exactly ``n_chunks`` near-equal sizes.

    Generators must produce exactly as many chunks as there are source
    subtasks: a stray remainder chunk would hand one subtask double data and
    create a two-wave straggler in every iteration.
    """
    n = max(1, min(n_chunks, total))
    bounds = [round(i * total / n) for i in range(n + 1)]
    return [hi - lo for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


@dataclass
class WorkloadResult:
    """Outcome of one workload run."""

    name: str
    mode: str                                   # "cpu" or "gpu"
    iteration_seconds: List[float]
    value: Any
    job_metrics: List[JobMetrics] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Total simulated run time (sum over iterations incl. I/O phases)."""
        return sum(self.iteration_seconds)

    @property
    def iterations(self) -> int:
        return len(self.iteration_seconds)


def _check_mode(mode: str) -> None:
    """Refuse any mode but ``"cpu"`` / ``"gpu"`` before anything is
    prepared: a driver reads ``mode == "gpu"``, so any other spelling would
    silently run the CPU plan."""
    if mode not in ("cpu", "gpu"):
        raise ConfigError(f"mode must be 'cpu' or 'gpu': {mode!r}")


def gpu_parallelism(session) -> int:
    """GPU-count parallelism for one-partition-per-device datasets.

    Uses the cluster's pinned ``default_gpu_parallelism`` (configured
    shape) when available so elastic joiners never change partition counts
    mid-run — partials per partition decide bits, so this is what keeps
    GPU workloads churn-identical.  Falls back to counting live devices
    for bare clusters without the pinned property.
    """
    pinned = getattr(session.cluster, "default_gpu_parallelism", None)
    if pinned is not None:
        return int(pinned)
    managers = session.cluster.gpu_managers()
    return max(sum(len(gm.devices) for gm in managers), 1)


class Workload:
    """Base class: input generation + the driver program.

    Subclasses implement :meth:`_block`, :meth:`register_kernels` and
    :meth:`driver`.  One driver serves both modes: it reads, persists,
    iterates and writes once, and at each step ``mode`` picks the GPU
    kernel op or its CPU twin.
    """

    name = "workload"

    def __init__(self, nominal_elements: float, real_elements: int,
                 element_nbytes: float, iterations: int = 5,
                 seed: int = DEFAULT_SEED, path: Optional[str] = None,
                 output_path: Optional[str] = None,
                 vectorized: bool = False):
        if real_elements <= 0:
            raise ConfigError("real_elements must be positive")
        if nominal_elements < real_elements:
            # Tiny test configurations run un-scaled.
            nominal_elements = float(real_elements)
        self.nominal_elements = float(nominal_elements)
        self.real_elements = int(real_elements)
        self.element_nbytes = float(element_nbytes)
        self.iterations = iterations
        #: Use block-vectorized CPU UDFs (repro.flink.iterators.vectorized):
        #: same results bit for bit, but operators are charged the SIMD
        #: block model and exchanges take the columnar zero-copy path.
        self.vectorized = bool(vectorized)
        self.seed = seed
        self.path = path or f"/{self.name}/input-{int(nominal_elements)}"
        # Derived from the input path so two instances of the same workload
        # with distinct inputs (e.g. concurrent tenants) never collide.
        self._output_path = output_path or f"{self.path}-output"
        self.rng = generator(seed, self.name, str(int(nominal_elements)))

    @property
    def scale(self) -> float:
        """Nominal elements per real element."""
        return self.nominal_elements / self.real_elements

    @property
    def output_path(self) -> str:
        return self._output_path

    # -- data preparation -----------------------------------------------------------
    def prepare(self, cluster: Cluster, n_chunks: Optional[int] = None) -> None:
        """Generate the input and load it into the cluster's HDFS.

        Chunk count defaults to the cluster's total slot count so every
        source subtask gets one block (the paper's on-demand parallelism).
        """
        if cluster.hdfs.exists(self.path):
            return
        chunks = self._generate_chunks(n_chunks or cluster.default_parallelism)
        cluster.load_hdfs_file(self.path, chunks)

    def _generate_chunks(self, n_chunks: int) -> List[Tuple[Any, int]]:
        """Return [(payload, nominal_nbytes)] — one entry per HDFS block."""
        return [(self._block(n), int(n * self.scale * self.element_nbytes))
                for n in even_chunk_sizes(self.real_elements, n_chunks)]

    def _block(self, n: int) -> Any:
        """The payload of one HDFS block of ``n`` real elements."""
        raise NotImplementedError

    # -- kernels ---------------------------------------------------------------
    def register_kernels(self, registry: KernelRegistry) -> None:
        """Register this workload's GPU kernels (idempotent)."""

    # -- execution ------------------------------------------------------------
    def run(self, session: GFlinkSession, mode: str = "cpu") -> WorkloadResult:
        """Run the workload end to end; returns per-iteration times."""
        _check_mode(mode)
        # A finished run's cluster is one web of reference cycles (workers,
        # managers, self-valued resource requests), ~1 MB that refcounting
        # never frees; drivers running workloads back to back would carry
        # two or three dead ones until a full collection happens to fire.
        # The trade, over 12 back-to-back benchmark jobs after a warm-up
        # (2-core VM): the collection costs 8-12 ms a job, and without it
        # peak RSS rises 43.6-43.9 -> 46.3-46.4 MB (shuffle_rows),
        # 42.7 -> 44.7-44.8 MB (gpu_iterative), 52.7 -> 60.0-60.1 MB
        # (observed), while full collections only fall 12 -> 6, 12 -> 12,
        # 24 -> 13: automatic ones still fire, later and on a larger heap.
        gc.collect()
        self.prepare(session.cluster)
        if mode == "gpu":
            self.register_kernels(session.cluster.registry)
        if session.cluster.hdfs.exists(self.output_path):
            session.cluster.hdfs.delete(self.output_path)
        history_start = len(session.history)
        proc = session.cluster.env.process(
            self.driver(session, mode), name=f"{self.name}-{mode}-driver")
        value, iteration_seconds = session.cluster.env.run(until=proc)
        return WorkloadResult(
            name=self.name, mode=mode,
            iteration_seconds=iteration_seconds, value=value,
            job_metrics=list(session.history[history_start:]))

    def driver(self, session: GFlinkSession, mode: str):
        """The driver program as a simulation process (generator) that
        returns ``(value, iteration_seconds)``.

        Multiple drivers may run concurrently on one cluster (Fig. 8c/d):
        see :func:`repro.workloads.base.run_concurrent`.
        """
        raise NotImplementedError


def run_concurrent(cluster, apps) -> List["WorkloadResult"]:
    """Run several applications concurrently on one cluster (§6.6.4).

    ``apps`` is a list of ``(workload, mode)``; each application gets its own
    driver session (its own ``app_id``, hence its own GPU cache regions) and
    all drivers run as simultaneous simulation processes, contending for
    task slots, GPUs, network and disks.  Returns one result per app whose
    ``iteration_seconds`` reflect the contended execution.
    """
    env = cluster.env
    for _, mode in apps:
        _check_mode(mode)
    sessions, procs = [], []
    for workload, mode in apps:
        workload.prepare(cluster)
        if mode == "gpu":
            workload.register_kernels(cluster.registry)
        if cluster.hdfs.exists(workload.output_path):
            cluster.hdfs.delete(workload.output_path)
    for workload, mode in apps:
        session = GFlinkSession(cluster)
        sessions.append(session)
        procs.append(env.process(
            workload.driver(session, mode),
            name=f"{workload.name}-{mode}-driver"))
    done = env.all_of(procs)
    env.run(until=done)
    results = []
    for (workload, mode), proc, session in zip(apps, procs, sessions):
        value, iteration_seconds = proc.value
        results.append(WorkloadResult(
            name=workload.name, mode=mode,
            iteration_seconds=iteration_seconds, value=value,
            job_metrics=list(session.history)))
    return results
