"""Exception hierarchy for the GFlink reproduction.

Every error raised by the library derives from :class:`ReproError`, so user
code can catch one base class.  Subsystem-specific errors (e.g. device
out-of-memory, job failure) derive from the intermediate classes below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """Invalid configuration (cluster, device, job or workload parameters)."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class InterruptError(ReproError):
    """A simulation process was interrupted by another process.

    Carries the ``cause`` supplied by the interrupter so the interrupted
    process can distinguish preemption from cancellation.
    """

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause


class ResourceError(ReproError):
    """Misuse of a simulated resource (double release, bad capacity, ...)."""


class MemoryExhaustedError(ReproError):
    """A managed memory pool (GPU device memory) is exhausted."""


class JobExecutionError(ReproError):
    """A submitted job failed after exhausting its retry budget."""


class KernelError(ReproError):
    """A GPU kernel launch or execution failed (bad name, bad launch config)."""


class DeviceFaultError(ReproError):
    """A GPU device fault (ECC error, device OOM, hang timeout, PCIe fault).

    Unlike :class:`KernelError` (a deterministic programming error), a device
    fault is an environmental failure: the JobManager retries the subtask and
    the GPUManager counts the fault toward the device's blacklist threshold.
    """

    def __init__(self, kind: str, device: str):
        super().__init__(f"device fault on {device}: {kind}")
        self.kind = kind
        self.device = device


class LayoutError(ReproError):
    """A GStruct definition or buffer layout is invalid."""
