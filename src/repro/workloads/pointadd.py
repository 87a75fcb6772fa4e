"""PointAdd — the paper's running example (Algorithm 3.1) and the third
application of the concurrency experiment (§6.6.4, Fig. 8c/d).

A GDST of ``Tuple2<Point, Point>`` is mapped through ``cudaAddPoint`` for
``iTimes`` iterations: each iteration adds the two points element-wise.
Cheap per-element work, so its GMapper speedup is the smallest of the three
concurrent applications (Fig. 8b: "the speedup of GMapper of PointAdd is
smaller than that of KMeans and SpMV").
"""

from __future__ import annotations

import numpy as np

from repro.core.gstruct import Float32, GStruct8, StructField
from repro.flink.dataset import OpCost
from repro.gpu.kernel import KernelSpec
from repro.workloads.base import Workload, ensure_kernel


class PointPair(GStruct8):
    """Tuple2<Point, Point> flattened into one struct."""

    ax = StructField(order=0, ftype=Float32)
    ay = StructField(order=1, ftype=Float32)
    bx = StructField(order=2, ftype=Float32)
    by = StructField(order=3, ftype=Float32)


def _add_points(pairs: np.ndarray) -> np.ndarray:
    out = PointPair.empty(len(pairs))
    out["ax"] = pairs["ax"] + pairs["bx"]
    out["ay"] = pairs["ay"] + pairs["by"]
    out["bx"] = pairs["bx"]
    out["by"] = pairs["by"]
    return out


def add_point_kernel(inputs, params):
    """The paper's ``cudaAddPoint``."""
    return {"out": _add_points(inputs["in"])}


class PointAddWorkload(Workload):
    """Algorithm 3.1: iterated gpuMapPartition(addPoint)."""

    name = "pointadd"
    CPU_FLOPS = 2.0
    CPU_OVERHEAD_S = 0.4e-6  # light per-pair work
    GPU_FLOPS = 2.0
    GPU_EFFICIENCY = 0.5  # trivially coalesced, bandwidth-bound

    def __init__(self, nominal_elements: float = 100e6,
                 real_elements: int = 50_000, iterations: int = 5, **kw):
        super().__init__(nominal_elements, real_elements,
                         element_nbytes=PointPair.itemsize(),
                         iterations=iterations, **kw)

    def _block(self, n: int) -> np.ndarray:
        arr = PointPair.empty(n)
        for f in ("ax", "ay", "bx", "by"):
            arr[f] = self.rng.uniform(-1, 1, size=n).astype(np.float32)
        return arr

    def register_kernels(self, registry) -> None:
        ensure_kernel(registry, KernelSpec(
            "cudaAddPoint", add_point_kernel,
            flops_per_element=self.GPU_FLOPS,
            bytes_per_element=2 * PointPair.itemsize(),
            efficiency=self.GPU_EFFICIENCY))

    # -- driver (Algorithm 3.1's Driver(A)) -----------------------------------------
    def driver(self, session, mode):
        current = session.read_hdfs(self.path, self.element_nbytes,
                                    scale=self.scale).persist()
        times = []
        for it in range(self.iterations):
            if mode == "gpu":
                # cache=False: the input changes every iteration
                # (V = M.map(...)).
                current = current.gpu_map_partition(
                    "cudaAddPoint", name="pointadd-gpu")
            else:
                current = current.map_partition(
                    _add_points,
                    cost=OpCost(flops_per_element=self.CPU_FLOPS,
                                element_overhead_s=self.CPU_OVERHEAD_S),
                    name="pointadd")
            current = current.persist()
            result = yield from current.materialize_job(
                job_name=f"pointadd-{mode}-iter{it}")
            seconds = result.seconds
            if it == self.iterations - 1:
                write = yield from current.write_hdfs_job(self.output_path)
                seconds += write.seconds
            times.append(seconds)
        return result.value, times
