"""ConnectedComponents (HiBench "ComponentConnect") — label propagation.

Each vertex starts with its own id as component label; every iteration each
edge proposes ``min(label[src], label[dst])`` to both endpoints, labels are
min-reduced per vertex (a shuffle) and the driver folds the update in.
Iterations run to the configured bound (the paper runs fixed iteration
counts), and the workload also reports when labels converged.

Structure matches PageRank (per-partition partials, keyed min-reduce), so
the paper's relative speedups (CC ~4.8x > PageRank ~3.5x: CC's per-edge work
is cheaper to shuffle — one int vs one float per vertex — and converging
labels shrink traffic) emerge from the same machinery.
"""

from __future__ import annotations

import numpy as np

from repro.core.gdst import ExtraInput
from repro.flink.dataset import OpCost
from repro.gpu.kernel import KernelSpec
from repro.workloads.base import Workload, ensure_kernel, gpu_parallelism
from repro.workloads.pagerank import Edge, EDGES_PER_PAGE

N_COMMUNITIES = 8


def _min_label_partials(edges: np.ndarray,
                        labels: np.ndarray) -> np.ndarray:
    """Rows ``[vertex, candidate_label]`` with per-partition min applied."""
    src, dst = edges["src"], edges["dst"]
    candidate = np.minimum(labels[src], labels[dst])
    n = len(labels)
    best = np.full(n, np.iinfo(np.int64).max)
    np.minimum.at(best, src, candidate)
    np.minimum.at(best, dst, candidate)
    touched = np.nonzero(best != np.iinfo(np.int64).max)[0]
    improved = touched[best[touched] < labels[touched]]
    return np.stack([improved.astype(np.int64), best[improved]], axis=1)


def cc_minlabel_kernel(inputs, params):
    return {"out": _min_label_partials(inputs["in"], inputs["labels"])}


class ConnectedComponentsWorkload(Workload):
    """Iterative min-label propagation over GStruct edges."""

    name = "connected_components"
    CPU_FLOPS = 4.0
    CPU_OVERHEAD_S = 1.08e-6  # per-edge tuple handling
    GPU_FLOPS = 4.0
    GPU_EFFICIENCY = 0.18

    def __init__(self, nominal_pages: float = 5e6, real_pages: int = 4_000,
                 iterations: int = 10, **kw):
        super().__init__(nominal_pages * EDGES_PER_PAGE,
                         real_pages * EDGES_PER_PAGE,
                         element_nbytes=Edge.itemsize(),
                         iterations=iterations, **kw)
        self.nominal_pages = float(nominal_pages)
        self.real_pages = int(real_pages)
        self.converged_at: int | None = None

    # -- data: a few disconnected communities ------------------------------------
    def _generate_chunks(self, n_chunks: int):
        # One community vector for the whole input, drawn before the first
        # block.
        self._community = self.rng.integers(0, N_COMMUNITIES,
                                            size=self.real_pages)
        return super()._generate_chunks(n_chunks)

    def _block(self, n: int) -> np.ndarray:
        community = self._community
        arr = Edge.empty(n)
        src = self.rng.integers(0, self.real_pages, size=n)
        # Keep edges within a community so components are non-trivial.
        offsets = self.rng.integers(1, max(self.real_pages // 16, 2), size=n)
        dst = np.zeros(n, dtype=np.int64)
        for c in range(N_COMMUNITIES):
            members = np.nonzero(community == c)[0]
            mine = np.nonzero(community[src] == c)[0]
            if len(members) and len(mine):
                dst[mine] = members[offsets[mine] % len(members)]
        arr["src"] = src.astype(np.int32)
        arr["dst"] = dst.astype(np.int32)
        return arr

    def register_kernels(self, registry) -> None:
        ensure_kernel(registry, KernelSpec(
            "cc_minlabel", cc_minlabel_kernel,
            flops_per_element=self.GPU_FLOPS,
            bytes_per_element=Edge.itemsize() + 8.0,
            efficiency=self.GPU_EFFICIENCY))

    # -- driver -------------------------------------------------------------------
    def driver(self, session, mode):
        gpu = mode == "gpu"
        # On the GPU, one partition per device: the label vector uploads
        # once per device.
        edges = session.read_hdfs(
            self.path, self.element_nbytes, scale=self.scale,
            parallelism=gpu_parallelism(session) if gpu else None).persist()
        labels = np.arange(self.real_pages, dtype=np.int64)
        labels_input = ExtraInput(lambda: labels, element_nbytes=8.0,
                                  scale=self.nominal_pages / self.real_pages,
                                  cacheable=False)
        times = []
        self.converged_at = None
        for it in range(self.iterations):
            if gpu:
                partial_rows = edges.gpu_map_partition(
                    "cc_minlabel", extra_inputs={"labels": labels_input},
                    cache=True, cache_key_base=("cc", self.path),
                    out_element_nbytes=12.0)
            else:
                partial_rows = edges.map_partition(
                    lambda e, l=labels: _min_label_partials(e, l),
                    cost=OpCost(flops_per_element=self.CPU_FLOPS,
                                out_element_nbytes=12.0,
                                element_overhead_s=self.CPU_OVERHEAD_S),
                    name="cc-minlabel")
            # Element-priced: the int64 rows pass the per-record
            # deserialisation step as the block they are.
            merged = partial_rows.map_partition(
                lambda rows: rows,
                cost=OpCost(flops_per_element=0.0), name="cc-tuples") \
                .group_by(0).min(1, cost=OpCost(flops_per_element=1.0),
                                 name="cc-min")
            result = yield from merged.collect_job(
                job_name=f"cc-{mode}-iter{it}")
            # One row per vertex (the keyed min), applied as one block.
            vertex, label = np.asarray(result.value,
                                       dtype=np.int64).reshape(-1, 2).T
            better = label < labels[vertex]
            labels = labels.copy()
            labels[vertex[better]] = label[better]
            if not better.any() and self.converged_at is None:
                self.converged_at = it
            seconds = result.seconds
            if it == self.iterations - 1:
                write = yield from session.from_collection(
                    labels, element_nbytes=8.0,
                    scale=self.nominal_pages / self.real_pages
                ).write_hdfs_job(self.output_path)
                seconds += write.seconds
            times.append(seconds)
        return labels, times
