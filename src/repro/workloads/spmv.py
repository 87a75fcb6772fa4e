"""Sparse matrix-vector multiplication, iterated (power method).

The paper's best-behaved cache demonstration (§6.6.1, Figs. 7b/8a): "SpMV is
an iterative application so that we can cache the matrix into GPUs in the
first iteration to reduce the running time of the following iterations."
The matrix rides the GPU cache; the vector changes per iteration and is
re-uploaded; the final vector is written to HDFS in the last iteration.

Rows are stored in ELLPACK form as a GStruct — a fixed number of
``(column, value)`` slots per row — so each row is one fixed-size struct and
the block-splitting rule (no struct straddles a page) applies unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.core.gdst import ExtraInput
from repro.core.gstruct import Float32, GStruct4, Int32, StructField
from repro.flink.dataset import OpCost
from repro.gpu.kernel import KernelSpec
from repro.workloads.base import Workload, ensure_kernel, gpu_parallelism

NNZ = 16  # non-zeros per row (ELL width)


class EllRow(GStruct4):
    """One matrix row: NNZ column indices + NNZ values."""

    cols = StructField(order=0, ftype=Int32, length=NNZ)
    vals = StructField(order=1, ftype=Float32, length=NNZ)


def _spmv_block(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y = A_block @ x for an ELL block."""
    return (rows["vals"].astype(np.float64)
            * x[rows["cols"]]).sum(axis=1).astype(np.float32)


def spmv_ell_kernel(inputs, params):
    return {"out": _spmv_block(inputs["in"], inputs["x"])}


class SpMVWorkload(Workload):
    """Iterated y = A x with x normalized between iterations."""

    name = "spmv"
    #: 2 flops per non-zero; gathers from x make it memory-bound.
    CPU_FLOPS = 2 * NNZ
    #: Per-row JVM overhead: iterating a sparse-row object's NNZ entries
    #: with boxed accessors.  Calibrated to Fig. 7b: the paper's own numbers
    #: (~300 s/iteration on one CPU for the 1 GB matrix, i.e. tens of us per
    #: row) show the Flink SpMV row path is extremely object-heavy; 14 us/row
    #: reproduces the ~10x mid-iteration CPU/GPU ratio and Fig. 6a's ~6.3x
    #: overall.
    CPU_OVERHEAD_S = 12.5e-6
    GPU_FLOPS = 2 * NNZ
    #: SpMV sustains a small fraction of peak (irregular gathers).
    GPU_EFFICIENCY = 0.12
    GPU_BYTES_PER_ELEMENT = EllRow.itemsize() + NNZ * 4  # row + x gathers

    def __init__(self, nominal_elements: float = 10e6,
                 real_elements: int = 20_000, iterations: int = 10,
                 gpu_cache: bool = True, **kw):
        super().__init__(nominal_elements, real_elements,
                         element_nbytes=EllRow.itemsize(),
                         iterations=iterations, **kw)
        self.n_rows = self.real_elements  # square: #cols == #rows (real)
        # Fig. 8a ablation: disable the GPU cache to show the matrix being
        # re-transferred every iteration.
        self.gpu_cache = gpu_cache

    # -- data ---------------------------------------------------------------------
    def _block(self, n: int) -> np.ndarray:
        arr = EllRow.empty(n)
        arr["cols"] = self.rng.integers(0, self.n_rows,
                                        size=(n, NNZ)).astype(np.int32)
        arr["vals"] = self.rng.uniform(
            0, 1, size=(n, NNZ)).astype(np.float32) / NNZ
        return arr

    def register_kernels(self, registry) -> None:
        ensure_kernel(registry, KernelSpec(
            "spmv_ell", spmv_ell_kernel,
            flops_per_element=self.GPU_FLOPS,
            bytes_per_element=self.GPU_BYTES_PER_ELEMENT,
            efficiency=self.GPU_EFFICIENCY))

    # -- driver -------------------------------------------------------------------
    def driver(self, session, mode):
        gpu = mode == "gpu"
        # On the GPU, one partition per device: the dense vector is a
        # whole-buffer operand uploaded per GWork, so fewer/larger
        # partitions upload it once per device per iteration (the paper
        # shards work per GPU the same way).
        matrix = session.read_hdfs(
            self.path, self.element_nbytes, scale=self.scale,
            parallelism=gpu_parallelism(session) if gpu else None).persist()
        x = np.full(self.n_rows, 1.0 / self.n_rows, dtype=np.float32)
        # The dense vector's nominal bytes ("the vector is 123 MB" for the
        # 1 GB matrix): one float per nominal row.
        x_input = ExtraInput(lambda: x, element_nbytes=4.0, scale=self.scale,
                             cacheable=False)
        times = []
        for it in range(self.iterations):
            if gpu:
                y_ds = matrix.gpu_map_partition(
                    "spmv_ell", extra_inputs={"x": x_input},
                    cache=self.gpu_cache,
                    cache_key_base=("spmv", self.path),
                    out_element_nbytes=4.0)
            else:
                y_ds = matrix.map_partition(
                    lambda rows, x=x: _spmv_block(rows, x),
                    cost=OpCost(flops_per_element=self.CPU_FLOPS,
                                out_element_nbytes=4.0,
                                element_overhead_s=self.CPU_OVERHEAD_S),
                    name="spmv-mult")
            result = yield from y_ds.collect_job(
                job_name=f"spmv-{mode}-iter{it}")
            y = np.asarray(result.value, dtype=np.float64)
            x = (y / max(np.linalg.norm(y), 1e-30)).astype(np.float32)
            seconds = result.seconds
            if it == self.iterations - 1:
                write = yield from session.from_collection(
                    x, element_nbytes=4.0, scale=self.scale
                ).write_hdfs_job(self.output_path)
                seconds += write.seconds
            times.append(seconds)
        return x, times
