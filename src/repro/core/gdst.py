"""GDST: the GPU-based DataSet (§3.5).

Adds the GPU-based user interfaces to the DST abstraction: ``gpu_map``,
``gpu_map_partition`` (the paper's ``gpuMapPartition``/``gpuMapBlock`` —
block processing is implicit: the GStreamManager splits partitions into
page-sized blocks) and ``gpu_reduce``.  Each GPU transformation compiles to
a :class:`GpuMapPartitionOp`, whose subtasks *produce* a
:class:`~repro.core.gwork.GWork` and hand it to the worker's GPUManager —
the producer–consumer decoupling of §5.

CPU transformations inherited from :class:`~repro.flink.dataset.DataSet`
remain available and return GDSTs, because GFlink "is compatible with the
compile-time and run-time of Flink".
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.common.errors import ConfigError, KernelError
from repro.core.channels import CommMode
from repro.core.gstruct import DataLayout
from repro.flink.fault import TaskFailure
from repro.core.gwork import GWork, KernelStage
from repro.core.hbuffer import HBuffer
from repro.flink.dataset import DataSet, OpCost
from repro.flink.partition import Partition
from repro.flink.payload import concat, real_len, to_block
from repro.flink.plan import Operator, ShipStrategy


def _attach_host_stream(ctx, work: GWork) -> None:
    """Wire the pipelined executor's input block stream into a GWork.

    When the subtask's primary input is still being streamed onto the host
    (``ctx.in_stream``), the GPU pipeline's H2D stage must wait for each
    device block's bytes to arrive — the three-stage pipeline becomes
    demand-driven by upstream availability.
    """
    stream = getattr(ctx, "in_stream", None)
    if stream is None:
        return
    work.host_stream = stream
    work.host_stream_slot = getattr(ctx, "in_slot", None)
    # The stream is consumed at H2D granularity; any later CPU charge on
    # this context (e.g. result handling) must not re-consume it.
    ctx._stream_consumed = True


def _submit_gwork(op_name: str, ctx, gpumanager, work: GWork):
    """Submit a GWork and unwrap the result (shared by all GPU operators).

    Kernel errors are deterministic and not retryable; anything else is a
    task failure the JobManager schedules around.  Per-kernel stage timings
    recorded by the pipeline are folded into the job metrics.
    """
    try:
        out_hbuf = yield gpumanager.submit(work)
    except KernelError:
        # Bad kernel name / wrong outputs: deterministic, not retryable.
        raise
    except Exception as exc:
        # A failed GWork (device fault, transient kernel crash) is a
        # task failure: the JobManager re-executes the subtask, which
        # re-submits the work — Flink's schedule-around-failures story
        # extended to the GPU path.
        raise TaskFailure(op_name, ctx.subtask_index, attempt=-1,
                          cause=repr(exc)) from exc
    totals = getattr(ctx.metrics, "gpu_stage_seconds", None)
    if totals is not None:
        for kernel_name, seconds in work.stage_seconds.items():
            totals[kernel_name] = totals.get(kernel_name, 0.0) + seconds
    return out_hbuf


def _check_degraded(op_name: str, ctx, gpumanager) -> bool:
    """True when this subtask must run its kernels on the CPU.

    Every device of the worker is blacklisted: with ``cpu_fallback`` on the
    subtask degrades gracefully; otherwise it fails as a (retryable) task
    failure — a re-placed attempt may land on a worker with healthy GPUs.
    """
    if gpumanager.gpu_available():
        return False
    if not gpumanager.config.cpu_fallback:
        raise TaskFailure(op_name, ctx.subtask_index, attempt=-1,
                          cause="all GPU devices blacklisted")
    return True


def _cpu_fallback(op_name: str, ctx, gpumanager, part: Partition,
                  stage_specs: List[tuple]):
    """Execute a kernel chain on the CPU (GPU→CPU graceful degradation).

    Kernels are functional (``fn(inputs, params) -> {"out": ...}``), so the
    *same* function runs on the host — over the same page-sized blocks the
    GPU pipeline would use, so reduce-style kernels emit identical per-block
    partials and results match the fault-free run bit for bit.  Time is
    charged through the CPU iterator cost model at the kernel's per-element
    FLOPs.  ``stage_specs`` is ``[(kernel_name, params, extra_arrays), ...]``.
    """
    registry = gpumanager.runtime.registry
    primary = HBuffer(part.elements, part.element_nbytes, scale=part.scale)
    blocks = primary.split_blocks(gpumanager.config.block_nbytes)
    results: List[Any] = []
    for blk in blocks:
        cur = blk.elements
        for kernel_name, params, extras in stage_specs:
            spec = registry.get(kernel_name)
            in_arrays = {"in": cur}
            in_arrays.update(extras)
            out = spec.fn(in_arrays, dict(params)) or {}
            if "out" not in out:
                raise KernelError(
                    f"kernel {kernel_name!r} produced no output 'out'; "
                    f"got {sorted(out)}")
            cur = out["out"]
        results.append(cur)
    for kernel_name, params, extras in stage_specs:
        spec = registry.get(kernel_name)
        yield from ctx.charge(OpCost(flops_per_element=spec.flops_per_element),
                              part.nominal_count, part.nominal_nbytes)
    metrics = ctx.metrics
    if hasattr(metrics, "fallback_tasks"):
        metrics.fallback_tasks += 1
    ctx.cluster.obs.emit("task.cpu_fallback", ctx.worker.name, "fallback",
                         op=op_name, subtask=ctx.subtask_index)
    return concat(results)


def _run_kernels(op_name: str, ctx, part: Partition,
                 stage_specs: Callable[[], List[tuple]],
                 build_gwork: Callable[[], GWork]):
    """The part of a GPU subtask every operator shares; returns the output
    elements.

    All of the worker's devices blacklisted: the kernels run on the CPU over
    ``part`` (:func:`_cpu_fallback`); otherwise one GWork is built and
    submitted.  Both arguments are thunks — only the path taken evaluates
    its own (a degraded subtask builds no HBuffers, a healthy one calls no
    operand supplier twice).
    """
    gpumanager = ctx.worker.gpumanager
    if _check_degraded(op_name, ctx, gpumanager):
        return (yield from _cpu_fallback(op_name, ctx, gpumanager, part,
                                         stage_specs()))
    out_hbuf = yield from _submit_gwork(op_name, ctx, gpumanager,
                                        build_gwork())
    return out_hbuf.elements


def _require_gpumanager(ctx) -> None:
    if ctx.worker.gpumanager is None:
        raise ConfigError(
            f"worker {ctx.worker.name} has no GPUManager; use a "
            f"GFlinkCluster with gpus_per_worker configured")


class GpuMapPartitionOp(Operator):
    """A partition-wise GPU transformation (gpuMapPartition, Alg. 3.1).

    The operator *is* an ordered list of kernel members, ``stages``, run by
    one subtask as ONE GWork; a single kernel is the chain of one
    (``stages == [self]``, set here) and :class:`FusedGpuOp` is the
    constructor of longer ones.  Everything below reads ``self.stages``.
    """

    def __init__(self, source: Operator, kernel_name: str, app_id: str,
                 extra_inputs: Optional[Dict[str, "ExtraInput"]] = None,
                 params: Optional[Dict[str, Any]] = None,
                 params_fn: Optional[Callable[[], Dict[str, Any]]] = None,
                 cache: bool = False,
                 cache_key_base: Optional[Any] = None,
                 out_element_nbytes: Optional[float] = None,
                 comm_mode: CommMode = CommMode.GFLINK,
                 cuda_block_size: int = 256,
                 layout: DataLayout = DataLayout.AOS,
                 scale_semantics: str = "auto",
                 parallelism: Optional[int] = None,
                 name: Optional[str] = None):
        super().__init__(name or f"gpu-map-partition({kernel_name})",
                         [source], parallelism, [ShipStrategy.FORWARD],
                         OpCost())
        if scale_semantics not in ("auto", "map", "flatmap", "reduce"):
            raise ConfigError(
                f"scale_semantics must be auto/map/flatmap/reduce: "
                f"{scale_semantics!r}")
        self.scale_semantics = scale_semantics
        self.kernel_name = kernel_name
        self.app_id = app_id
        self.extra_inputs = dict(extra_inputs or {})
        self.params = dict(params or {})
        self.params_fn = params_fn
        self.cache = cache
        self.cache_key_base = (cache_key_base if cache_key_base is not None
                               else source.uid)
        self.out_elem_nbytes = out_element_nbytes
        self.comm_mode = comm_mode
        self.cuda_block_size = cuda_block_size
        self.layout = layout
        self.stages: List[GpuMapPartitionOp] = [self]

    def execute_subtask(self, ctx, inputs):
        (part,) = inputs
        _require_gpumanager(ctx)
        if part.real_count == 0:
            return Partition(index=ctx.subtask_index, elements=[],
                             element_nbytes=self.out_element_nbytes(part),
                             scale=part.scale, worker=ctx.worker.name)
        out_elements = yield from _run_kernels(
            self.name, ctx, part,
            lambda: [(op.kernel_name, op._launch_params(),
                      {name: extra.supplier()
                       for name, extra in op.extra_inputs.items()})
                     for op in self.stages],
            lambda: self._build_gwork(ctx, part))
        scale = self._output_scale(part, real_len(out_elements))
        return Partition(index=ctx.subtask_index, elements=out_elements,
                         element_nbytes=self.out_element_nbytes(part),
                         scale=scale, worker=ctx.worker.name)

    def _launch_params(self) -> Dict[str, Any]:
        params = dict(self.params)
        if self.params_fn is not None:
            params.update(self.params_fn())
        return params

    def _output_scale(self, part: Partition, out_real: int) -> float:
        """Nominal scaling of the chain's final output.

        The last stage's semantics decide:

        * ``map`` — one out per in: keep the input's scale.
        * ``flatmap`` — variable fan-out realized on the sample: the sample
          selectivity stands for the nominal one, so the scale carries over.
        * ``reduce`` — the kernel emits *real* partials (per block): scale 1.
        * ``auto`` — map when counts match, reduce otherwise (the two common
          kernel shapes) — except downstream of a flatmap-style stage, where
          the input's scale is kept (the count change is explained upstream,
          not by a reduce-style contraction).
        """
        semantics = self.stages[-1].scale_semantics
        if semantics in ("map", "flatmap"):
            return part.scale
        if semantics == "reduce":
            return 1.0
        if any(s.scale_semantics == "flatmap" for s in self.stages[:-1]):
            return part.scale
        return part.scale if out_real == part.real_count else 1.0

    def _build_gwork(self, ctx, part: Partition) -> GWork:
        stages = self.stages
        head = stages[0]
        gflink = self.comm_mode is CommMode.GFLINK
        # GStruct data is raw bytes in off-heap memory already: creating the
        # HBuffer is free.  Non-array payloads model plain JVM objects and
        # pay the conversion penalty via the JNI_HEAP path semantics.
        in_buffers = {"in": HBuffer(part.elements, part.element_nbytes,
                                    scale=part.scale, off_heap=gflink,
                                    pinned=gflink, layout=self.layout)}
        kernel_stages: List[KernelStage] = []
        per_elem, declared = part.element_nbytes, None
        for i, op in enumerate(stages):
            # A lone kernel's secondary operands keep their plain names (its
            # cache keys are built from them); chain members namespace
            # theirs so two may both have e.g. a "centers" input.
            extra: Dict[str, str] = {}
            for arg, operand in op.extra_inputs.items():
                alias = arg if len(stages) == 1 else f"s{i}:{arg}"
                in_buffers[alias] = operand.to_hbuffer(self.comm_mode)
                extra[arg] = alias
            if op.out_elem_nbytes is not None:
                per_elem = declared = op.out_elem_nbytes
            nxt = stages[i + 1] if i + 1 < len(stages) else None
            kernel_stages.append(KernelStage(
                execute_name=op.kernel_name,
                params=op._launch_params(),
                out_element_nbytes=per_elem,
                block_size=op.cuda_block_size,
                extra=extra,
                # Operator i+1 caching its input == stage i caching its
                # output, under i+1's (stable) cache_key_base — so iterative
                # jobs hit the same keys fused or not, and a resumed chain
                # skips the already-computed prefix.
                cache_output=nxt is not None and nxt.cache,
                cache_key=((nxt.cache_key_base, part.index)
                           if nxt is not None and nxt.cache else None),
            ))
        cache = head.cache or any(s.cache_output for s in kernel_stages)
        # The Algorithm 3.1 fields name the head kernel; ``stages`` carries
        # the whole chain and is all the stream reads.
        work = GWork(
            execute_name="+".join(op.kernel_name for op in stages),
            ptx_path=f"/{head.kernel_name}.ptx",
            in_buffers=in_buffers,
            out_buffer=HBuffer([], per_elem, scale=part.scale,
                               off_heap=gflink, pinned=gflink),
            size=part.nominal_count,
            block_size=head.cuda_block_size,
            cache=cache,
            cache_key=(head.cache_key_base, part.index),
            params=kernel_stages[0].params,
            app_id=self.app_id,
            out_element_nbytes=declared,
            comm_mode=self.comm_mode,
            stages=kernel_stages,
            # Stage outputs may be cached without the raw input being so.
            primary_cached=head.cache or not cache,
        )
        _attach_host_stream(ctx, work)
        return work

    def out_element_nbytes(self, input_partition) -> float:
        """The last size a member declares, else the input's."""
        for op in reversed(self.stages):
            if op.out_elem_nbytes is not None:
                return op.out_elem_nbytes
        if input_partition is not None:
            return input_partition.element_nbytes
        return 8.0


class FusedGpuOp(GpuMapPartitionOp):
    """Two or more element-wise GPU operators executing as ONE GWork.

    The GPU analogue of :class:`repro.flink.optimizer.FusedMapOp`, built by
    the optimizer: the pipeline uploads the primary input once, launches
    every member's kernel back-to-back against device-resident buffers and
    downloads only the final output — the intermediates never cross PCIe.
    Application, transfer path and device layout are the head's (the
    optimizer only fuses members that agree on them).
    """

    def __init__(self, source: Operator, stages: List[GpuMapPartitionOp]):
        if len(stages) < 2:
            raise ConfigError("a GPU chain needs at least two stages")
        head = stages[0]
        super().__init__(
            source, "+".join(op.kernel_name for op in stages), head.app_id,
            comm_mode=head.comm_mode, layout=head.layout,
            name="gpu-chain(" + "->".join(s.name for s in stages) + ")")
        self.stages = list(stages)


class GpuJoinOp(Operator):
    """GPU hash equi-join (§3.5.2's deferred "Join ... can also be
    implemented in GPUs").

    Both inputs are hash-shuffled by key (the CPU-side exchange, exactly as
    for a CPU join); each subtask then runs the registered join kernel on
    its bucket pair: the left bucket streams through the block pipeline as
    the primary input, the right bucket uploads whole as a secondary
    operand (the build side of a GPU hash join).
    """

    def __init__(self, left: Operator, right: Operator,
                 left_key: Callable, right_key: Callable,
                 kernel_name: str, app_id: str,
                 params: Optional[Dict[str, Any]] = None,
                 out_element_nbytes: Optional[float] = None,
                 comm_mode: CommMode = CommMode.GFLINK,
                 parallelism: Optional[int] = None,
                 name: Optional[str] = None):
        super().__init__(name or f"gpu-join({kernel_name})",
                         [left, right], parallelism,
                         [ShipStrategy.HASH, ShipStrategy.HASH],
                         OpCost(out_element_nbytes=out_element_nbytes))
        self.left_key = left_key
        self.right_key = right_key
        self.kernel_name = kernel_name
        self.app_id = app_id
        self.params = dict(params or {})
        self.comm_mode = comm_mode

    def key_fn_for_input(self, i):
        return self.left_key if i == 0 else self.right_key

    def execute_subtask(self, ctx, inputs):
        left, right = inputs
        _require_gpumanager(ctx)
        if left.real_count == 0 or right.real_count == 0:
            return Partition(index=ctx.subtask_index, elements=[],
                             element_nbytes=self.out_element_nbytes(left),
                             scale=1.0, worker=ctx.worker.name)
        left_rows, right_rows = (_kernel_operand(side.elements)
                                 for side in inputs)
        out_elements = yield from _run_kernels(
            self.name, ctx, left.derive(left_rows),
            lambda: [(self.kernel_name, dict(self.params),
                      {"right": right_rows})],
            lambda: GWork(
                execute_name=self.kernel_name,
                in_buffers={
                    "in": HBuffer(left_rows, left.element_nbytes,
                                  scale=left.scale, off_heap=True,
                                  pinned=True),
                    # The build side: uploaded whole, never cached.
                    "right": HBuffer(right_rows, right.element_nbytes,
                                     scale=right.scale, off_heap=True,
                                     pinned=True, cacheable=False)},
                out_buffer=HBuffer([], self.out_element_nbytes(left),
                                   pinned=True),
                size=left.nominal_count + right.nominal_count,
                params=dict(self.params), app_id=self.app_id,
                out_element_nbytes=self.cost.out_element_nbytes,
                comm_mode=self.comm_mode))
        # Join fan-out realized on the sample stands for the nominal one.
        return Partition(index=ctx.subtask_index, elements=out_elements,
                         element_nbytes=self.out_element_nbytes(left),
                         scale=max(left.scale, right.scale),
                         worker=ctx.worker.name)


def _kernel_operand(elements: Any) -> Any:
    """Hash-exchange buckets arrive as row lists; kernels want blocks."""
    try:
        return to_block(elements)
    except TypeError:  # heterogeneous rows stay the rows they were
        return elements


class ExtraInput:
    """A broadcast-style secondary kernel operand (e.g. KMeans centers).

    ``cacheable`` controls GPU caching: iteration-varying operands (KMeans
    centers, the SpMV vector) must stay ``cacheable=False`` so every
    submission re-uploads the fresh value; static operands (PageRank's
    out-degree table) may ride the GPU cache with the primary input
    (use :meth:`constant`).
    """

    def __init__(self, supplier: Callable[[], Any], element_nbytes: float,
                 scale: float = 1.0, cacheable: bool = False):
        self.supplier = supplier
        self.element_nbytes = element_nbytes
        self.scale = scale
        self.cacheable = cacheable

    @classmethod
    def constant(cls, value: Any, element_nbytes: float, scale: float = 1.0,
                 cacheable: bool = True) -> "ExtraInput":
        """An operand whose value never changes (cache-eligible by default)."""
        return cls(lambda: value, element_nbytes, scale, cacheable=cacheable)

    def to_hbuffer(self, mode: CommMode) -> HBuffer:
        return HBuffer(self.supplier(), self.element_nbytes, scale=self.scale,
                       off_heap=mode is CommMode.GFLINK,
                       pinned=mode is CommMode.GFLINK,
                       cacheable=self.cacheable)


class GDST(DataSet):
    """GPU-based DataSet: DST plus gpuMap/gpuReduce interfaces."""

    def gpu_map_partition(self, kernel_name: str,
                          extra_inputs: Optional[Dict[str, ExtraInput]] = None,
                          params: Optional[Dict[str, Any]] = None,
                          params_fn: Optional[Callable[[], Dict]] = None,
                          cache: bool = False,
                          cache_key_base: Optional[Any] = None,
                          out_element_nbytes: Optional[float] = None,
                          comm_mode: CommMode = CommMode.GFLINK,
                          cuda_block_size: int = 256,
                          layout: DataLayout = DataLayout.AOS,
                          scale_semantics: str = "auto",
                          parallelism: Optional[int] = None,
                          name: Optional[str] = None) -> "GDST":
        """Run a registered kernel over each partition, block by block.

        ``cache=True`` keeps the partition's blocks in the GPU cache keyed by
        ``(cache_key_base, partition index)`` — reuse across iterations needs
        a stable ``cache_key_base`` (defaults to the source dataset's plan
        uid, which is stable when the driver reuses the same persisted
        dataset object).
        """
        app_id = getattr(self.session, "app_id", "default")
        return self._derive(GpuMapPartitionOp(
            self.op, kernel_name, app_id, extra_inputs=extra_inputs,
            params=params, params_fn=params_fn, cache=cache,
            cache_key_base=cache_key_base,
            out_element_nbytes=out_element_nbytes, comm_mode=comm_mode,
            cuda_block_size=cuda_block_size, layout=layout,
            scale_semantics=scale_semantics, parallelism=parallelism,
            name=name))

    def gpu_map(self, kernel_name: str, **kwargs) -> "GDST":
        """Element-wise GPU map — same machinery, one output per input."""
        kwargs.setdefault("name", f"gpu-map({kernel_name})")
        kwargs.setdefault("scale_semantics", "map")
        return self.gpu_map_partition(kernel_name, **kwargs)

    def gpu_flat_map(self, kernel_name: str, **kwargs) -> "GDST":
        """``gpuFlatMap`` (§3.5.2): zero-or-more outputs per input element.

        The kernel returns the flattened output block; the sample's fan-out
        stands in for the nominal one (nominal scaling carries over).
        """
        kwargs.setdefault("name", f"gpu-flat-map({kernel_name})")
        kwargs.setdefault("scale_semantics", "flatmap")
        return self.gpu_map_partition(kernel_name, **kwargs)

    def gpu_filter(self, kernel_name: str, **kwargs) -> "GDST":
        """GPU-side filter: the kernel returns the surviving elements."""
        kwargs.setdefault("name", f"gpu-filter({kernel_name})")
        kwargs.setdefault("scale_semantics", "flatmap")
        return self.gpu_map_partition(kernel_name, **kwargs)

    def gpu_join(self, other: "GDST", left_key: Callable,
                 right_key: Callable, kernel_name: str,
                 params: Optional[Dict[str, Any]] = None,
                 out_element_nbytes: Optional[float] = None,
                 parallelism: Optional[int] = None,
                 name: Optional[str] = None) -> "GDST":
        """GPU hash equi-join with ``other`` (§3.5.2's deferred Join).

        The registered kernel receives ``{"in": left_block, "right":
        right_bucket}`` and returns the joined block as ``{"out": ...}``.
        """
        if other.session is not self.session:
            raise ValueError("cannot join datasets from different sessions")
        app_id = getattr(self.session, "app_id", "default")
        return self._derive(GpuJoinOp(
            self.op, other.op, left_key, right_key, kernel_name, app_id,
            params=params, out_element_nbytes=out_element_nbytes,
            parallelism=parallelism, name=name))

    def gpu_reduce(self, kernel_name: str, final_fn: Callable,
                   cost: OpCost = OpCost(),
                   **kwargs) -> "GDST":
        """GPU partial reduction per block + CPU final combine.

        The kernel emits one (or few) partials per block; the tiny final
        fold runs on the CPU ("The GReducer ... cannot obtain good speedup
        as it is not compute-intensive", §6.6.2 — so only the bulk phase
        goes to the GPU).
        """
        kwargs.setdefault("name", f"gpu-reduce({kernel_name})")
        partials = self.gpu_map_partition(kernel_name, **kwargs)
        return partials.reduce(final_fn, cost=cost,
                               name=f"final-reduce({kernel_name})")
