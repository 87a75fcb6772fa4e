"""GWork: the unit of GPU work (paper §3.5.3, Algorithm 3.1).

The driver assembles a GWork — input/output buffers, the kernel ("ptx path"
plus the exported function name), launch geometry, cache flags — and submits
it to the worker's GStreamManager.  "After submission, the input buffer and
output buffer will be transformed to GPUs automatically ... After executions
on GPUs, the results are pulled from GPUs to output buffer automatically."

A GWork *is* a chain of kernel stages (GPU operator chaining): the pipeline
uploads the primary input once, launches the stages back-to-back against
device-resident intermediates, and downloads only the final output.  A
single kernel is the chain of one: the Algorithm 3.1 constructor
(``execute_name`` / ``params`` / ``block_size``) is normalised to a one-stage
list in :meth:`GWork.__post_init__`, and the stream and the scheduler read
only :attr:`GWork.stages`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional

from repro.common.errors import ConfigError
from repro.common.simclock import Event
from repro.core.channels import CommMode
from repro.core.hbuffer import HBuffer

#: Primary input name: this buffer is blocked and pipelined; all other
#: inputs ship whole before the pipeline starts (broadcast-style operands
#: such as KMeans centers or the SpMV vector).
PRIMARY = "in"

#: Cache-key tag for a chained stage's device-resident output block.
#: Full keys are ``(stage.cache_key, STAGE_OUT, block index)``.
STAGE_OUT = "stage-out"

_gwork_ids = itertools.count()


@dataclass
class KernelStage:
    """One kernel launch inside a (possibly fused) GWork.

    ``extra`` maps the kernel's secondary argument names to keys of the
    work's ``in_buffers`` — fused chains namespace their per-stage operands
    (``"s2:centers"``) while each kernel still sees its own plain names.

    ``cache_output`` keeps this stage's per-block output resident in the
    application's cache region under ``(cache_key, STAGE_OUT, block)``, so
    iterative jobs resume the chain mid-way on the next submission.
    """

    execute_name: str
    params: Dict[str, Any] = field(default_factory=dict)
    out_element_nbytes: Optional[float] = None
    block_size: int = 256
    extra: Dict[str, str] = field(default_factory=dict)
    cache_output: bool = False
    cache_key: Optional[Hashable] = None

    def __post_init__(self) -> None:
        if self.cache_output and self.cache_key is None:
            raise ConfigError(
                f"stage {self.execute_name!r}: cache_output requires a "
                f"cache_key")


@dataclass
class GWork:
    """One schedulable piece of GPU work.

    Field names mirror Algorithm 3.1 (``ptxPath``, ``executeName``,
    ``blockSize``/``gridSize``, ``inBuffer``/``outBuffer``, ``cache``,
    ``cacheKey``), pythonized.  Every GWork runs the same way: its blocks
    go through the three-stage H2D → kernel → D2H pipeline over the copy
    engines, each kernel launched by ``CUDARuntime.kernel_op``.
    """

    execute_name: str                       # registered kernel name
    in_buffers: Dict[str, HBuffer]          # kernel arg name -> host buffer
    out_buffer: HBuffer                     # results land here
    size: float                             # nominal element count
    ptx_path: str = ""                      # informational, as in the paper
    block_size: int = 256                   # CUDA threads per block
    grid_size: Optional[int] = None         # None: derived from size
    cache: bool = False                     # cache inputs on the device
    cache_key: Optional[Hashable] = None    # e.g. (partition id, block id)
    params: Dict[str, Any] = field(default_factory=dict)
    app_id: str = "default"                 # owns the device cache region
    out_element_nbytes: Optional[float] = None
    #: The kernels to launch, in order, sharing device-resident
    #: intermediates.  Never empty once constructed: None (the Algorithm 3.1
    #: form) becomes the one stage that execute_name/params/block_size name.
    stages: Optional[List[KernelStage]] = None
    #: Whether the primary input's blocks may use the cache region (a fused
    #: chain caches stage outputs without necessarily caching its input).
    primary_cached: bool = True

    #: Pipelined executor wiring (repro.flink.pipeline.BlockStream): when
    #: the producing operator is still streaming the primary input's blocks
    #: onto the host, the H2D stage waits for each device block's bytes to
    #: be host-resident before uploading and acknowledges consumption so
    #: upstream backpressure credits return.  None = input fully resident.
    host_stream: Optional[Any] = None
    host_stream_slot: Optional[int] = None

    # Runtime state (set by the GStreamManager).
    work_id: int = field(default_factory=lambda: next(_gwork_ids))
    comm_mode: CommMode = CommMode.GFLINK
    completion: Optional[Event] = None
    assigned_device: Optional[int] = None
    #: Per-kernel execution seconds, filled by the pipeline as stages run.
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ConfigError(f"GWork size must be >= 0: {self.size}")
        if self.cache and self.cache_key is None:
            raise ConfigError("cache=True requires a cache_key")
        if not self.in_buffers:
            raise ConfigError("GWork needs at least one input buffer")
        if self.stages is None:
            extra = {name: name for name in self.in_buffers
                     if name != PRIMARY}
            self.stages = [KernelStage(
                execute_name=self.execute_name, params=dict(self.params),
                out_element_nbytes=self.out_element_nbytes,
                block_size=self.block_size, extra=extra)]
        elif not self.stages:
            raise ConfigError("stages, when given, must be non-empty")

    @property
    def chained(self) -> bool:
        """More than one stage: there are intermediates to keep resident."""
        return len(self.stages) > 1

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<GWork #{self.work_id} {self.execute_name} "
                f"n={self.size:.3g} cache={self.cache}>")
