"""GPUManager: the per-worker component GFlink adds to every slave (§3.4).

"GPUManager, which resides in each worker in the cluster, manages GPU
computing resources (e.g., GPU memory, GPU context) and cooperates with
TaskManager to accomplish the tasks assigned to GPUs."  It owns:

* the node's :class:`~repro.gpu.device.GPUDevice` s,
* the native runtime + :class:`~repro.core.channels.CUDAWrapper`
  (CUDAWrapper/CUDAStub communication, §4.1),
* the :class:`~repro.core.gmemory.GMemoryManager` (automatic device memory
  + cache, §4.2),
* the :class:`~repro.core.gstream.GStreamManager` (scheduling + pipeline, §5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Set

from repro.common.errors import DeviceFaultError
from repro.common.simclock import Environment, Event
from repro.core.channels import CommCosts, CUDAWrapper
from repro.core.gmemory import EvictionPolicy, GMemoryManager
from repro.core.gstream import GStreamManager
from repro.core.gwork import GWork
from repro.gpu.device import GPUDevice
from repro.gpu.kernel import KernelRegistry
from repro.gpu.runtime import CUDARuntime
from repro.gpu.specs import get_spec
from repro.obs import OFF, Observability


@dataclass(frozen=True)
class GPUManagerConfig:
    """Tunables of the per-worker GPU stack."""

    cache_bytes_per_device: int = 1 << 30     # per-app cache region capacity
    #: Cache GC scheme: "fifo" | "no-evict" | "lru" (an
    #: :class:`~repro.core.gmemory.EvictionPolicy` value).
    cache_policy: str = "fifo"
    streams_per_gpu: int = 2
    block_nbytes: int = 8 * (1 << 20)         # pipeline block ("page") size
    comm_costs: CommCosts = CommCosts()
    locality_aware: bool = True               # Algorithm 5.1's GID step
    #: Device faults (ECC / OOM / hang / PCIe) before a device is taken out
    #: of service.  An uncorrectable ECC error blacklists immediately.
    blacklist_threshold: int = 3
    #: With every device of a worker blacklisted, GPU operators degrade to
    #: CPU execution of the same kernel function instead of failing the job.
    cpu_fallback: bool = True
    #: Simulated time charged before a hang / stalled-transfer fault is
    #: detected (the driver watchdog window).
    fault_timeout_s: float = 2.0

    def resolved_policy(self) -> EvictionPolicy:
        return EvictionPolicy(self.cache_policy.lower())


class GPUManager:
    """All GPU machinery of one worker node."""

    def __init__(self, env: Environment, worker_name: str,
                 gpu_spec_names: Sequence[str], registry: KernelRegistry,
                 config: Optional[GPUManagerConfig] = None,
                 obs: Observability = OFF):
        self.env = env
        self.worker_name = worker_name
        self.config = config or GPUManagerConfig()
        self.obs = obs
        self.devices: List[GPUDevice] = [
            GPUDevice(env, get_spec(name), index=i,
                      name=f"{worker_name}-gpu{i}")
            for i, name in enumerate(gpu_spec_names)
        ]
        # Health scoring per device, plus a pcie_saturated alert rule
        # pinned to each device's calibrated bus ceiling.
        for device in self.devices:
            obs.register_device(device.name, device.spec.pcie_effective_bps)
        self.runtime = CUDARuntime(env, self.devices, registry)
        self.wrapper = CUDAWrapper(env, self.runtime,
                                   self.config.comm_costs)
        self.gmm = GMemoryManager(
            self.devices,
            cache_capacity_per_device=self.config.cache_bytes_per_device,
            policy=self.config.resolved_policy())
        self.gstream_manager = GStreamManager(
            env, self.devices, self.wrapper, self.gmm,
            streams_per_gpu=self.config.streams_per_gpu,
            block_nbytes=self.config.block_nbytes,
            locality_aware=self.config.locality_aware,
            obs=obs)
        # Failure-domain state: injected faults waiting to hit the next GWork
        # on a device, per-device fault counts, and the blacklist.
        self.gstream_manager.faults = self
        self.device_failures: Dict[int, int] = {
            i: 0 for i in range(len(self.devices))}
        self.blacklisted: Set[int] = set()
        self._pending_faults: Dict[int, Deque[str]] = {
            i: deque() for i in range(len(self.devices))}

    # -- the TaskManager-facing API ------------------------------------------------
    def submit(self, work: GWork) -> Event:
        """Submit a GWork produced by a Flink task (producer→consumer edge)."""
        return self.gstream_manager.submit(work)

    def release_app(self, app_id: str) -> None:
        """Drop an application's GPU cache regions (job/application end)."""
        self.gmm.release_app(app_id)

    # -- failure domains ------------------------------------------------------------
    def inject_device_fault(self, device_index: int, kind) -> None:
        """Queue a fault against a device (chaos engine / tests).

        ``kind`` is a :class:`repro.flink.chaos.FaultKind` or its string
        value.  An uncorrectable ECC error kills the device outright; the
        transient kinds hit the next GWork executing there (which fails,
        counts toward the blacklist threshold, and is retried elsewhere).
        """
        kind = getattr(kind, "value", kind)
        if device_index not in self._pending_faults:
            raise ValueError(f"no GPU {device_index} on {self.worker_name}")
        self._pending_faults[device_index].append(kind)
        if kind == "gpu-ecc":
            self._blacklist(device_index, cause=kind)

    def consume_fault(self, device_index: int) -> Optional[str]:
        """Pop the oldest pending fault for a device (stream-side hook)."""
        pending = self._pending_faults.get(device_index)
        if pending:
            return pending.popleft()
        return None

    def record_device_failure(self, device_index: int,
                              exc: BaseException) -> None:
        """Count a failed GWork toward the device's blacklist threshold.

        Only :class:`~repro.common.errors.DeviceFaultError` counts —
        programming errors (bad kernels) and resource exhaustion are not
        evidence of broken hardware.
        """
        if not isinstance(exc, DeviceFaultError):
            return
        self.device_failures[device_index] += 1
        if self.device_failures[device_index] >= \
                self.config.blacklist_threshold:
            self._blacklist(device_index, cause=exc.kind)

    def _blacklist(self, device_index: int, cause: str) -> None:
        if device_index in self.blacklisted:
            return
        self.blacklisted.add(device_index)
        # Its cached blocks are unreachable: invalidate so locality-aware
        # scheduling stops steering work at the dead device.
        self.gmm.invalidate_device(device_index)
        self.gstream_manager.mark_blacklisted(device_index)
        device = self.devices[device_index]
        self.obs.emit("device.blacklisted", device.name, "sched",
                      device=device.name, cause=cause)

    def healthy_device_indices(self) -> List[int]:
        """Indices of in-service (non-blacklisted) devices."""
        return [i for i in range(len(self.devices))
                if i not in self.blacklisted]

    def gpu_available(self) -> bool:
        """True while at least one device remains in service."""
        return bool(self.healthy_device_indices())

    # -- metrics ------------------------------------------------------------------
    def kernel_seconds(self) -> float:
        """Total kernel execution time across this worker's devices."""
        return sum(d.kernel_seconds for d in self.devices)

    def pcie_bytes(self) -> int:
        """Total H2D + D2H traffic across this worker's devices."""
        return sum(d.h2d_bytes + d.d2h_bytes for d in self.devices)
