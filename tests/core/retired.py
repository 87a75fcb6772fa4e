"""Retired GPU operator bodies, kept verbatim as test oracles.

Until the fused/unfused fork closed, ``repro.core.gdst`` spelled the GPU
map-partition subtask twice: ``GpuMapPartitionOp`` (one kernel, the
Algorithm 3.1 form of GWork) and ``FusedGpuOp`` (a chain, the ``stages``
form) each had an ``execute_subtask``, a ``_build_gwork``, an
``_output_scale`` and an ``out_element_nbytes``.  The engine now has one of
each — a single kernel is the chain of one — and these are the two retired
sets, method bodies unchanged (constructors dropped: a twin is made from a
live operator's attributes, so both run over the very same plan node).
``tests/core/test_gwork_differential.py`` holds the one body to them.

Same house style as ``tests/flink/retired.py``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.errors import ConfigError
from repro.core.channels import CommMode
from repro.core.gdst import (_attach_host_stream, _check_degraded,
                             _cpu_fallback, _submit_gwork)
from repro.core.gwork import GWork, KernelStage
from repro.core.hbuffer import HBuffer
from repro.flink.partition import Partition
from repro.flink.payload import real_len
from repro.flink.plan import Operator


def retired_twin(op):
    """The retired operator over the same attributes (uid, name, members,
    kernel, cache keys ...) as the live ``op``."""
    cls = (RetiredGpuMapPartitionOp if len(op.stages) == 1
           else RetiredFusedGpuOp)
    twin = object.__new__(cls)
    twin.__dict__.update(vars(op))
    return twin


class RetiredGpuMapPartitionOp(Operator):
    """The single-kernel operator's subtask as it was beside the chain's."""

    def execute_subtask(self, ctx, inputs):
        (part,) = inputs
        gpumanager = ctx.worker.gpumanager
        if gpumanager is None:
            raise ConfigError(
                f"worker {ctx.worker.name} has no GPUManager; use a "
                f"GFlinkCluster with gpus_per_worker configured")
        if part.real_count == 0:
            return Partition(index=ctx.subtask_index, elements=[],
                             element_nbytes=self.out_element_nbytes(part),
                             scale=part.scale, worker=ctx.worker.name)
        if _check_degraded(self.name, ctx, gpumanager):
            params = dict(self.params)
            if self.params_fn is not None:
                params.update(self.params_fn())
            extras = {name: extra.supplier()
                      for name, extra in self.extra_inputs.items()}
            out_elements = yield from _cpu_fallback(
                self.name, ctx, gpumanager, part,
                [(self.kernel_name, params, extras)])
        else:
            work = self._build_gwork(ctx, part)
            out_hbuf = yield from _submit_gwork(self.name, ctx, gpumanager,
                                                work)
            out_elements = out_hbuf.elements
        out_real = real_len(out_elements)
        scale = self._output_scale(part, out_real)
        return Partition(index=ctx.subtask_index, elements=out_elements,
                         element_nbytes=self.out_element_nbytes(part),
                         scale=scale, worker=ctx.worker.name)

    def _output_scale(self, part: Partition, out_real: int) -> float:
        """Nominal scaling of the kernel output.

        * ``map`` — one out per in: keep the input's scale.
        * ``flatmap`` — variable fan-out realized on the sample: the sample
          selectivity stands for the nominal one, so the scale carries over.
        * ``reduce`` — the kernel emits *real* partials (per block): scale 1.
        * ``auto`` — map when counts match, reduce otherwise (the two common
          kernel shapes).
        """
        if self.scale_semantics in ("map", "flatmap"):
            return part.scale
        if self.scale_semantics == "reduce":
            return 1.0
        return part.scale if out_real == part.real_count else 1.0

    def _build_gwork(self, ctx, part: Partition) -> GWork:
        # GStruct data is raw bytes in off-heap memory already: creating the
        # HBuffer is free.  Non-array payloads model plain JVM objects and
        # pay the conversion penalty via the JNI_HEAP path semantics.
        primary = HBuffer(part.elements, part.element_nbytes,
                          scale=part.scale,
                          off_heap=self.comm_mode is CommMode.GFLINK,
                          pinned=self.comm_mode is CommMode.GFLINK,
                          layout=self.layout)
        in_buffers = {"in": primary}
        for name, extra in self.extra_inputs.items():
            in_buffers[name] = extra.to_hbuffer(self.comm_mode)
        out_buffer = HBuffer(
            [], self.out_element_nbytes(part), scale=part.scale,
            off_heap=self.comm_mode is CommMode.GFLINK,
            pinned=self.comm_mode is CommMode.GFLINK)
        params = dict(self.params)
        if self.params_fn is not None:
            params.update(self.params_fn())
        work = GWork(
            execute_name=self.kernel_name,
            ptx_path=f"/{self.kernel_name}.ptx",
            in_buffers=in_buffers,
            out_buffer=out_buffer,
            size=part.nominal_count,
            block_size=self.cuda_block_size,
            cache=self.cache,
            cache_key=(self.cache_key_base, part.index),
            params=params,
            app_id=self.app_id,
            out_element_nbytes=self.out_elem_nbytes,
            comm_mode=self.comm_mode,
            mapped_memory=self.mapped_memory,
        )
        _attach_host_stream(ctx, work)
        return work

    def out_element_nbytes(self, input_partition) -> float:
        if self.out_elem_nbytes is not None:
            return self.out_elem_nbytes
        if input_partition is not None:
            return input_partition.element_nbytes
        return 8.0


class RetiredFusedGpuOp(Operator):
    """The chain operator's own copy of the same subtask."""

    def execute_subtask(self, ctx, inputs):
        (part,) = inputs
        gpumanager = ctx.worker.gpumanager
        if gpumanager is None:
            raise ConfigError(
                f"worker {ctx.worker.name} has no GPUManager; use a "
                f"GFlinkCluster with gpus_per_worker configured")
        if part.real_count == 0:
            return Partition(index=ctx.subtask_index, elements=[],
                             element_nbytes=self.out_element_nbytes(part),
                             scale=part.scale, worker=ctx.worker.name)
        if _check_degraded(self.name, ctx, gpumanager):
            stage_specs = []
            for op in self.stages:
                params = dict(op.params)
                if op.params_fn is not None:
                    params.update(op.params_fn())
                extras = {name: extra.supplier()
                          for name, extra in op.extra_inputs.items()}
                stage_specs.append((op.kernel_name, params, extras))
            out_elements = yield from _cpu_fallback(
                self.name, ctx, gpumanager, part, stage_specs)
        else:
            work = self._build_gwork(ctx, part)
            out_hbuf = yield from _submit_gwork(self.name, ctx, gpumanager,
                                                work)
            out_elements = out_hbuf.elements
        out_real = real_len(out_elements)
        scale = self._output_scale(part, out_real)
        return Partition(index=ctx.subtask_index, elements=out_elements,
                         element_nbytes=self.out_element_nbytes(part),
                         scale=scale, worker=ctx.worker.name)

    def _output_scale(self, part: Partition, out_real: int) -> float:
        """Nominal scaling of the chain's final output.

        The last stage's semantics decide, exactly as unfused — except that
        an ``auto`` tail downstream of a flatmap-style stage must keep the
        input's scale (the count change is explained upstream, not by a
        reduce-style contraction)."""
        last = self.stages[-1]
        if last.scale_semantics in ("map", "flatmap"):
            return part.scale
        if last.scale_semantics == "reduce":
            return 1.0
        if any(s.scale_semantics == "flatmap" for s in self.stages[:-1]):
            return part.scale
        return part.scale if out_real == part.real_count else 1.0

    def _build_gwork(self, ctx, part: Partition) -> GWork:
        first = self.stages[0]
        primary = HBuffer(part.elements, part.element_nbytes,
                          scale=part.scale,
                          off_heap=self.comm_mode is CommMode.GFLINK,
                          pinned=self.comm_mode is CommMode.GFLINK,
                          layout=self.layout)
        in_buffers = {"in": primary}
        kernel_stages: List[KernelStage] = []
        per_elem = float(part.element_nbytes)
        for i, op in enumerate(self.stages):
            # Namespace each member's secondary operands so two stages may
            # both have e.g. a "centers" input without colliding.
            extra: Dict[str, str] = {}
            for arg, operand in op.extra_inputs.items():
                alias = f"s{i}:{arg}"
                in_buffers[alias] = operand.to_hbuffer(self.comm_mode)
                extra[arg] = alias
            params = dict(op.params)
            if op.params_fn is not None:
                params.update(op.params_fn())
            if op.out_elem_nbytes is not None:
                per_elem = op.out_elem_nbytes
            nxt = self.stages[i + 1] if i + 1 < len(self.stages) else None
            kernel_stages.append(KernelStage(
                execute_name=op.kernel_name,
                params=params,
                out_element_nbytes=per_elem,
                block_size=op.cuda_block_size,
                extra=extra,
                # Operator i+1 caching its input == stage i caching its
                # output, under i+1's (stable) cache_key_base.
                cache_output=nxt is not None and nxt.cache,
                cache_key=((nxt.cache_key_base, part.index)
                           if nxt is not None and nxt.cache else None),
            ))
        cache = first.cache or any(s.cache_output for s in kernel_stages)
        out_buffer = HBuffer(
            [], per_elem, scale=part.scale,
            off_heap=self.comm_mode is CommMode.GFLINK,
            pinned=self.comm_mode is CommMode.GFLINK)
        work = GWork(
            execute_name="+".join(op.kernel_name for op in self.stages),
            ptx_path=f"/{self.stages[0].kernel_name}.ptx",
            in_buffers=in_buffers,
            out_buffer=out_buffer,
            size=part.nominal_count,
            block_size=first.cuda_block_size,
            cache=cache,
            cache_key=((first.cache_key_base, part.index) if cache
                       else None),
            app_id=self.app_id,
            out_element_nbytes=per_elem,
            comm_mode=self.comm_mode,
            stages=kernel_stages,
            primary_cached=first.cache,
        )
        _attach_host_stream(ctx, work)
        return work

    def out_element_nbytes(self, input_partition) -> float:
        per_elem = (float(input_partition.element_nbytes)
                    if input_partition is not None else 8.0)
        for op in self.stages:
            if op.out_elem_nbytes is not None:
                per_elem = op.out_elem_nbytes
        return per_elem
