"""Linear regression by batch gradient descent (Flink example workload).

"The linear regression is bounded by calculations on each data point, which
can benefit from the GPU's high computation powers" (§6.5) — the paper's
largest overall speedup (~9.2x).  Structure mirrors KMeans: per-partition
partial gradients, tiny collect, driver-side weight update; the feature
matrix is GPU-cached, the weight vector is re-uploaded each iteration.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.gdst import ExtraInput
from repro.core.gstruct import Float32, GStruct8, StructField
from repro.flink.dataset import OpCost
from repro.gpu.kernel import KernelSpec
from repro.workloads.base import Workload, ensure_kernel

DIM = 8  # feature dimensionality (HiBench-like)


class Sample(GStruct8):
    """One training sample: DIM features + target."""

    features = StructField(order=0, ftype=Float32, length=DIM)
    target = StructField(order=1, ftype=Float32)


def _partial_gradient(samples: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row ``[n, g_0..g_{DIM-1}, loss]`` of partial gradient sums."""
    x = samples["features"].astype(np.float64)
    y = samples["target"].astype(np.float64)
    err = x @ weights - y
    grad = x.T @ err
    loss = float(err @ err)
    return np.concatenate([[len(samples)], grad, [loss]]).reshape(1, -1)


def linreg_grad_kernel(inputs, params):
    return {"out": _partial_gradient(inputs["in"], inputs["weights"])}


def _predict(samples: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return (samples["features"].astype(np.float64) @ weights).astype(
        np.float32)


class LinearRegressionWorkload(Workload):
    """Full-batch gradient descent on GStruct samples."""

    name = "linear_regression"
    #: per-element CPU work: dot product + gradient accumulation.
    CPU_FLOPS = 4 * DIM
    #: Per-sample JVM overhead: a DIM-element feature loop with boxing.
    CPU_OVERHEAD_S = 2.0e-6
    GPU_FLOPS = 4 * DIM
    #: dense FMA-friendly kernel: high efficiency (§6.5's "bounded by
    #: calculations on each data point").
    GPU_EFFICIENCY = 0.6

    def __init__(self, nominal_elements: float = 150e6,
                 real_elements: int = 50_000, iterations: int = 10,
                 learning_rate: float = 1e-3, **kw):
        super().__init__(nominal_elements, real_elements,
                         element_nbytes=Sample.itemsize(),
                         iterations=iterations, **kw)
        self.learning_rate = learning_rate
        self.true_weights = self.rng.normal(0, 1, size=DIM)

    def _block(self, n: int) -> np.ndarray:
        arr = Sample.empty(n)
        x = self.rng.normal(0, 1, size=(n, DIM))
        noise = self.rng.normal(0, 0.05, size=n)
        arr["features"] = x.astype(np.float32)
        arr["target"] = (x @ self.true_weights + noise).astype(np.float32)
        return arr

    def register_kernels(self, registry) -> None:
        ensure_kernel(registry, KernelSpec(
            "linreg_grad", linreg_grad_kernel,
            flops_per_element=self.GPU_FLOPS,
            bytes_per_element=Sample.itemsize(),
            efficiency=self.GPU_EFFICIENCY))
        ensure_kernel(registry, KernelSpec(
            "linreg_predict",
            lambda i, p: {"out": _predict(i["in"], i["weights"])},
            flops_per_element=2 * DIM,
            bytes_per_element=Sample.itemsize(),
            efficiency=self.GPU_EFFICIENCY))

    # -- driver -------------------------------------------------------------------
    def _update(self, weights: np.ndarray,
                rows: List[np.ndarray]) -> np.ndarray:
        table = np.vstack([np.asarray(r, dtype=np.float64).reshape(1, -1)
                           for r in rows])
        n = table[:, 0].sum()
        grad = table[:, 1:1 + DIM].sum(axis=0) / max(n, 1.0)
        return weights - self.learning_rate * grad

    def driver(self, session, mode):
        gpu = mode == "gpu"
        samples = session.read_hdfs(self.path, self.element_nbytes,
                                    scale=self.scale).persist()
        weights = np.zeros(DIM)
        weights_input = ExtraInput(lambda: weights, element_nbytes=8.0,
                                   cacheable=False)
        times = []
        for it in range(self.iterations):
            if gpu:
                partials = samples.gpu_map_partition(
                    "linreg_grad", extra_inputs={"weights": weights_input},
                    cache=True, cache_key_base=("linreg", self.path),
                    out_element_nbytes=8.0 * (DIM + 2))
            else:
                # A row list, so collect prices the partials per row.
                partials = samples.map_partition(
                    lambda elems, w=weights: list(_partial_gradient(elems, w)),
                    cost=OpCost(flops_per_element=self.CPU_FLOPS,
                                element_overhead_s=self.CPU_OVERHEAD_S),
                    name="linreg-grad")
            result = yield from partials.collect_job(
                job_name=f"linreg-{mode}-iter{it}")
            weights = self._update(weights, result.value)
            seconds = result.seconds
            if it == self.iterations - 1:
                if gpu:
                    predictions = samples.gpu_map_partition(
                        "linreg_predict",
                        extra_inputs={"weights": ExtraInput.constant(
                            weights, element_nbytes=8.0, cacheable=False)},
                        cache=True, cache_key_base=("linreg", self.path),
                        out_element_nbytes=4.0)
                else:
                    predictions = samples.map_partition(
                        lambda elems, w=weights: _predict(elems, w),
                        cost=OpCost(flops_per_element=2 * DIM,
                                    out_element_nbytes=4.0,
                                    element_overhead_s=self.CPU_OVERHEAD_S),
                        name="linreg-predict")
                write = yield from predictions.write_hdfs_job(self.output_path)
                seconds += write.seconds
            times.append(seconds)
        return weights, times
