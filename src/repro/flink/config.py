"""Configuration objects for the Flink substrate and the simulated cluster."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import ConfigError
from repro.common.network import NetworkConfig
from repro.hdfs.datanode import DiskConfig


@dataclass(frozen=True)
class CPUSpec:
    """One CPU socket of a worker node.

    The paper's testbed uses an Intel Core i5-4590 (4 cores @ 3.3 GHz).  The
    throughput figure is *sustained scalar* throughput of JVM iterator code,
    not peak SIMD — Flink UDFs run one element at a time through megamorphic
    call sites, which is exactly why the paper's GPU speedups are large.
    """

    name: str = "i5-4590"
    cores: int = 4
    clock_ghz: float = 3.3
    flops_per_core: float = 4.0e9  # sustained scalar FLOP/s in iterator code
    #: Sustained throughput of *vectorized block* operators (tight SIMD
    #: loops over primitive arrays, no per-element virtual calls).  Only
    #: UDFs that opt in via :func:`repro.flink.iterators.vectorized` are
    #: charged at this rate; 4-wide SSE/AVX over the scalar figure matches
    #: what a columnar batch engine sustains on this core.
    simd_flops_per_core: float = 16.0e9

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigError(f"cores must be >= 1, got {self.cores}")
        if self.flops_per_core <= 0:
            raise ConfigError("flops_per_core must be positive")
        if self.simd_flops_per_core <= 0:
            raise ConfigError("simd_flops_per_core must be positive")


@dataclass(frozen=True)
class FlinkConfig:
    """Engine calibration constants (DESIGN.md §5).

    All times in seconds, sizes in bytes, rates in bytes or FLOPs per second.
    """

    # Iterator execution model: per-element virtual-call + iterator overhead.
    element_overhead_s: float = 120e-9

    # Serialization between JVM objects and bytes (shuffle, heap-path GPU I/O).
    serde_bps: float = 0.8e9

    # Columnar zero-copy exchange (docs/STREAMING_EXECUTOR.md §columnar):
    # a routed exchange that carries columnar payloads (NumPy /
    # GStruct SoA regions) under a vectorized key extractor ships raw block
    # regions — no per-row serde; each framed block pays this fixed
    # descriptor cost (length/dtype/key) on each side of the wire.  Row
    # payloads take the classic per-record path.
    shuffle_block_header_s: float = 2e-6
    # A single destination payload larger than this (nominal bytes) is
    # spilled through the simulated HDFS instead of held in exchange
    # buffers: the producer writes the region, the consumer reads it back
    # (charging disk + replication instead of a direct wire push).
    shuffle_spill_nbytes: float = 256 * 2**20

    # Vectorized CPU operators: UDFs marked with
    # ``repro.flink.iterators.vectorized`` are charged the *block* model —
    # one dispatch per block plus SIMD-rate arithmetic — instead of the
    # per-element iterator model.  This is the per-block dispatch overhead
    # (loop setup, bounds checks, one virtual call per block instead of
    # per element).
    block_overhead_s: float = 5e-6

    # Job-level fixed overheads (Observation 3 in §6.3: these dominate small
    # inputs and cap the speedup of short jobs).
    job_submit_s: float = 0.6
    task_schedule_s: float = 1.5e-3
    task_deploy_s: float = 2.0e-3

    # Fault tolerance.
    max_task_retries: int = 3
    # Worker failure detection: the master expects a heartbeat from every
    # TaskManager each interval and declares a worker dead once
    # ``heartbeat_timeout_s`` passes without one.  Detection runs only while
    # a chaos schedule is installed (see repro.flink.chaos) so fault-free
    # simulations schedule no extra events and keep a bit-identical clock.
    heartbeat_interval_s: float = 1.0
    heartbeat_timeout_s: float = 5.0
    # Retry back-off for failed attempts: attempt k waits
    # ``base * 2**(k-1)`` capped at ``retry_backoff_max_s``, stretched by a
    # deterministic jitter in [0, retry_backoff_jitter] derived from
    # ``retry_jitter_seed`` and the subtask identity.  The default base of 0
    # disables back-off entirely (immediate retry — the pre-chaos behavior).
    retry_backoff_base_s: float = 0.0
    retry_backoff_max_s: float = 30.0
    retry_backoff_jitter: float = 0.1
    retry_jitter_seed: int = 20160816

    # Operator chaining: fuse element-wise operator chains into one task
    # (Flink's default behavior); see repro.flink.optimizer.
    enable_chaining: bool = True
    # GPU operator chaining: fuse consecutive GPU operators into one GWork
    # with device-resident intermediates (saves a D2H+H2D round-trip per
    # fused boundary); see repro.flink.optimizer and repro.core.gdst.
    enable_gpu_chaining: bool = True

    # Structured tracing (repro.obs): record spans/instants from the whole
    # stack for Chrome-trace export.  Off by default (tests); benchmarks and
    # the `repro trace` CLI turn it on.  Tracing never schedules simulation
    # events, so the simulated clock is identical either way.
    enable_tracing: bool = False

    # Online monitoring (repro.obs.monitor, docs/OBSERVABILITY.md): sample
    # metrics into windows of simulated time, track SLOs/error budgets,
    # evaluate alert rules and score health while the job runs.  Off by
    # default (tests); `repro monitor` turns it on.  The monitor is fed
    # synchronously from instrumented call sites and never schedules
    # simulation events, so the simulated clock is identical either way.
    enable_monitoring: bool = False
    # Width of one sampling window, in simulated seconds.
    monitor_window_s: float = 1.0

    # Flight recorder (repro.obs.flightrecorder): dump a post-mortem bundle
    # (JSON: the tail of the recent spans and closed metric windows) when an
    # alert fires or the chaos engine injects a fault.  Purely passive —
    # dump-time slicing and host file I/O — so the simulated clock stays
    # bit-identical either way.
    enable_flight_recorder: bool = False
    # Directory bundles are written to (None keeps them in memory only).
    flight_recorder_dir: Optional[str] = None

    # Block pipeline (docs/STREAMING_EXECUTOR.md): HDFS blocks stream
    # through whole pipeline regions, overlapping read / CPU / H2D /
    # kernel / D2H within a region.  This is the bounded block-queue depth
    # between adjacent operators of a region: a producer that runs this
    # many blocks ahead of its slowest consumer stalls (backpressure)
    # until credits return.
    pipeline_queue_blocks: int = 4
    # Streaming granularity: HDFS blocks are far coarser (tens to hundreds
    # of MB) than useful pipeline quanta, so the source splits each block's
    # read into sub-blocks of at most this many bytes and publishes them as
    # the read progresses.  Smaller values overlap more but wake consumers
    # more often; bench_pipeline.py sweeps this knob.
    pipeline_block_nbytes: float = 8 * 2**20

    def __post_init__(self) -> None:
        if self.serde_bps <= 0:
            raise ConfigError("serde_bps must be positive")
        if self.pipeline_queue_blocks < 1:
            raise ConfigError("pipeline_queue_blocks must be >= 1")
        if self.monitor_window_s <= 0:
            raise ConfigError("monitor_window_s must be positive")
        if self.pipeline_block_nbytes <= 0:
            raise ConfigError("pipeline_block_nbytes must be positive")
        if self.shuffle_block_header_s < 0:
            raise ConfigError("shuffle_block_header_s must be >= 0")
        if self.shuffle_spill_nbytes <= 0:
            raise ConfigError("shuffle_spill_nbytes must be positive")
        if self.block_overhead_s < 0:
            raise ConfigError("block_overhead_s must be >= 0")


@dataclass
class RuntimeTuning:
    """Online-tunable runtime knobs (the only *mutable* config surface).

    :class:`FlinkConfig` is frozen — a run's calibration constants never
    drift — but elastic operation needs a few knobs the
    :class:`~repro.flink.autoscaler.Autoscaler` can retune *mid-run*:
    streaming granularity, read-ahead depth and placement bias.  Every
    consumer reads these through ``cluster.tuning`` instead of the frozen
    config; they affect the simulated clock only, never functional results.
    """

    #: Streaming sub-block granularity (initially
    #: ``FlinkConfig.pipeline_block_nbytes``); the autoscaler widens this
    #: when PCIe descriptor overhead dominates (``pcie_bound``).
    pipeline_block_nbytes: float = 8 * 2**20
    #: Bounded block-queue depth / source read-ahead (initially
    #: ``FlinkConfig.pipeline_queue_blocks``); raised under ``hdfs_bound``.
    pipeline_queue_blocks: int = 4
    #: Bias source placement toward replica holders even when they are
    #: busier (``pcie_bound`` → keep GPU work next to its cached input).
    prefer_local_placement: bool = False

    @classmethod
    def from_flink(cls, flink: FlinkConfig) -> "RuntimeTuning":
        return cls(pipeline_block_nbytes=flink.pipeline_block_nbytes,
                   pipeline_queue_blocks=flink.pipeline_queue_blocks)


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated cluster.

    ``gpus_per_worker`` is a list of GPU spec names (see
    :mod:`repro.gpu.specs`); the plain Flink substrate ignores it, the GFlink
    runtime attaches a GPUManager per worker from it.
    """

    n_workers: int = 10
    cpu: CPUSpec = field(default_factory=CPUSpec)
    gpus_per_worker: tuple[str, ...] = ()
    slots_per_worker: int | None = None  # default: one per CPU core
    flink: FlinkConfig = field(default_factory=FlinkConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    disk: DiskConfig = field(default_factory=DiskConfig)
    hdfs_replication: int = 2

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {self.n_workers}")
        slots = self.slots_per_worker
        if slots is not None and slots < 1:
            raise ConfigError(f"slots_per_worker must be >= 1, got {slots}")

    @property
    def slots(self) -> int:
        """Task slots per worker (defaults to the CPU core count)."""
        return self.slots_per_worker or self.cpu.cores

    @property
    def total_slots(self) -> int:
        """Task slots across the whole cluster."""
        return self.n_workers * self.slots

    def worker_names(self) -> list[str]:
        """Stable worker node names, ``worker0..workerN-1``."""
        return [f"worker{i}" for i in range(self.n_workers)]
