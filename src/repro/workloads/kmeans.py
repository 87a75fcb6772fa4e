"""KMeans clustering (HiBench) — the paper's flagship iterative workload.

Driver structure (both modes):

1. iteration 1 reads the point set from HDFS (and, on GFlink, uploads it to
   the GPU cache);
2. every iteration computes per-partition partial sums of the points
   assigned to each center ("the dominant operation is searching for the
   closest centers", §6.5), collects the tiny partials and updates the
   centers — "KMeans only shuffles centers in each iteration";
3. the last iteration additionally writes per-point assignments to HDFS.

The GPU kernel processes a block of points against the (re-uploaded each
iteration) centers and emits one ``k x (2 + dim)`` partial-sum table per
block — a reduce-style kernel, so only kilobytes come back over PCIe.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.gdst import ExtraInput
from repro.core.gstruct import Float32, GStruct8, StructField
from repro.flink.dataset import OpCost
from repro.flink.iterators import vectorized
from repro.gpu.kernel import KernelSpec
from repro.workloads.base import Workload, ensure_kernel

K = 16      # number of clusters (HiBench default scale)
DIM = 2     # point dimensionality


class KMeansPoint(GStruct8):
    """The paper's §3.5.1 Point, specialized to the benchmark."""

    x = StructField(order=0, ftype=Float32)
    y = StructField(order=1, ftype=Float32)


def _assign_partials(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Partial sums per center: rows ``[center_id, count, sum_x, sum_y]``."""
    xy = np.stack([points["x"], points["y"]], axis=1).astype(np.float64)
    d2 = ((xy[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assign = np.argmin(d2, axis=1)
    out = np.zeros((centers.shape[0], 2 + DIM))
    out[:, 0] = np.arange(centers.shape[0])
    np.add.at(out[:, 1], assign, 1.0)
    np.add.at(out[:, 2], assign, xy[:, 0])
    np.add.at(out[:, 3], assign, xy[:, 1])
    return out


def kmeans_assign_kernel(inputs, params):
    """GPU kernel: block of points + centers -> partial-sum table."""
    return {"out": _assign_partials(inputs["in"], inputs["centers"])}


def _combine_partials(rows: List[np.ndarray],
                      old_centers: np.ndarray) -> np.ndarray:
    table = np.vstack([np.asarray(r, dtype=np.float64).reshape(-1, 2 + DIM)
                       for r in rows])
    new_centers = old_centers.copy()
    for cid in range(old_centers.shape[0]):
        mine = table[table[:, 0] == cid]
        count = mine[:, 1].sum()
        if count > 0:
            new_centers[cid] = mine[:, 2:].sum(axis=0) / count
    return new_centers


class KMeansWorkload(Workload):
    """Lloyd's algorithm over GStruct points."""

    name = "kmeans"
    #: CPU cost: k distance computations of 3*DIM flops each, plus argmin.
    CPU_FLOPS = K * (3 * DIM + 1)
    #: Per-point JVM overhead: a k-way distance loop over boxed points
    #: (HiBench KMeans on Flink processes ~1M points/s/core).
    CPU_OVERHEAD_S = 0.65e-6
    #: GPU kernel: same arithmetic; efficiency reflects divergence + atomics.
    GPU_FLOPS = K * 3 * DIM
    GPU_EFFICIENCY = 0.35

    def __init__(self, nominal_elements: float = 150e6,
                 real_elements: int = 50_000, iterations: int = 10, **kw):
        super().__init__(nominal_elements, real_elements,
                         element_nbytes=KMeansPoint.itemsize(),
                         iterations=iterations, **kw)
        self.k = K
        centers = self.rng.uniform(-10, 10, size=(self.k, DIM))
        self.true_centers = centers

    # -- data ------------------------------------------------------------------
    def _block(self, n: int) -> np.ndarray:
        pts = KMeansPoint.empty(n)
        which = self.rng.integers(0, self.k, size=n)
        noise = self.rng.normal(0, 0.6, size=(n, DIM))
        coords = self.true_centers[which] + noise
        pts["x"], pts["y"] = coords[:, 0], coords[:, 1]
        return pts

    # -- kernels ---------------------------------------------------------------
    def register_kernels(self, registry) -> None:
        ensure_kernel(registry, KernelSpec(
            "kmeans_assign", kmeans_assign_kernel,
            flops_per_element=self.GPU_FLOPS,
            bytes_per_element=KMeansPoint.itemsize(),
            efficiency=self.GPU_EFFICIENCY))
        ensure_kernel(registry, KernelSpec(
            "kmeans_label", lambda i, p: {
                "out": _label(i["in"], i["centers"])},
            flops_per_element=self.GPU_FLOPS,
            bytes_per_element=KMeansPoint.itemsize(),
            efficiency=self.GPU_EFFICIENCY))

    # -- driver -----------------------------------------------------------------
    def driver(self, session, mode):
        gpu = mode == "gpu"
        points = session.read_hdfs(self.path, self.element_nbytes,
                                   scale=self.scale).persist()
        centers = self.true_centers + self.rng.normal(0, 2.0,
                                                      size=(self.k, DIM))
        if gpu:
            # The GPU keeps float32 centers (the update below keeps the
            # dtype it is handed).
            centers = centers.astype(np.float32)
        centers_input = ExtraInput(
            lambda: centers, element_nbytes=4.0 * DIM,
            cacheable=False)  # centers change every iteration
        cpu_cost = dict(flops_per_element=self.CPU_FLOPS,
                        element_overhead_s=self.CPU_OVERHEAD_S)
        times = []
        for it in range(self.iterations):
            if gpu:
                partials = points.gpu_map_partition(
                    "kmeans_assign", extra_inputs={"centers": centers_input},
                    cache=True, cache_key_base=("kmeans", self.path),
                    out_element_nbytes=8.0 * (2 + DIM))
            elif self.vectorized:
                # The (k, 2+DIM) table stays one columnar block, and the
                # marker selects the SIMD block charge model.
                partials = points.map_partition(
                    vectorized(lambda pts, c=centers:
                               _assign_partials(pts, c)),
                    cost=OpCost(**cpu_cost), name="kmeans-assign")
            else:
                # A row list, so collect prices the partials per row.
                partials = points.map_partition(
                    lambda pts, c=centers: list(_assign_partials(pts, c)),
                    cost=OpCost(**cpu_cost), name="kmeans-assign")
            result = yield from partials.collect_job(
                job_name=f"kmeans-{mode}-iter{it}")
            centers = _combine_partials(result.value, centers)
            seconds = result.seconds
            if it == self.iterations - 1:
                if gpu:
                    labels = points.gpu_map_partition(
                        "kmeans_label",
                        extra_inputs={"centers": centers_input},
                        cache=True, cache_key_base=("kmeans", self.path),
                        out_element_nbytes=4.0)
                else:
                    label_fn = lambda pts, c=centers: _label(pts, c)
                    labels = points.map_partition(
                        vectorized(label_fn) if self.vectorized else label_fn,
                        cost=OpCost(out_element_nbytes=4.0, **cpu_cost),
                        name="kmeans-label")
                write = yield from labels.write_hdfs_job(self.output_path)
                seconds += write.seconds
            times.append(seconds)
        return centers, times


def _label(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    xy = np.stack([points["x"], points["y"]], axis=1).astype(np.float64)
    d2 = ((xy[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1).astype(np.int32)
