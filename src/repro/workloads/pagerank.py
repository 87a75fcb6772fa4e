"""PageRank (HiBench) — iterative, shuffle-heavy graph workload.

The paper reports ~3.5x overall: the contribution computation accelerates
well on the GPU, but every iteration must shuffle per-vertex contributions
(Observation 1: "the larger space the Shuffle phases occupy, the smaller
speedup can be obtained").

Graph model: a synthetic web graph of ``pages`` vertices with
``EDGES_PER_PAGE`` out-links each (Zipf-ish preferential targets); edges are
8-byte GStructs partitioned by source block.  Ranks live in the driver and
are broadcast each iteration; per-partition partial contributions are
pre-aggregated (``np.bincount``) before the shuffle, as a combinable Flink
job would.

What the keyed step costs the host: ``_contrib_partials`` (the CPU UDF and
the GPU kernel alike) gathers its edges' ranks and degrees, adds them into a
dense vector of every page, and scans that vector once with a boolean mask
for the non-zero pages — no float ``nonzero``.  Its rows are one per
destination, so every producer block reaches the exchange with distinct
keys: grouping it is one key sort and a sort by bucket, and folding its
one-row segments is a copy (``repro.flink.payload``).
"""

from __future__ import annotations

import numpy as np

from repro.core.gdst import ExtraInput
from repro.core.gstruct import GStruct4, Int32, StructField
from repro.flink.dataset import OpCost
from repro.flink.iterators import field, field_sum, vectorized
from repro.gpu.kernel import KernelSpec
from repro.workloads.base import Workload, ensure_kernel, gpu_parallelism

EDGES_PER_PAGE = 8
DAMPING = 0.85


class Edge(GStruct4):
    src = StructField(order=0, ftype=Int32)
    dst = StructField(order=1, ftype=Int32)


def _contrib_partials(edges: np.ndarray, ranks: np.ndarray,
                      out_degree: np.ndarray) -> np.ndarray:
    """Per-destination partial contributions: rows ``[dst, partial]``, one
    per page whose partial is non-zero, ascending by ``dst``.

    The edges add into a dense per-page vector (``bincount``, in edge
    order); one boolean scan of it picks the rows to emit."""
    src = edges["src"].astype(np.intp)  # one index cast for two gathers
    sums = np.bincount(edges["dst"],
                       weights=ranks.take(src) / out_degree.take(src),
                       minlength=len(ranks))
    dst = (sums != 0).nonzero()[0]
    out = np.empty((len(dst), 2))
    out[:, 0] = dst
    out[:, 1] = sums[dst]
    return out


def pagerank_contrib_kernel(inputs, params):
    return {"out": _contrib_partials(inputs["in"], inputs["ranks"],
                                     inputs["out_degree"])}


#: A ``[dst, partial]`` row deserialised into the typed record the
#: element-priced plan's UDFs see: ``(int, float)``.
CONTRIBUTION = np.dtype([("dst", np.int64), ("partial", np.float64)])


def _contributions(rows: np.ndarray) -> np.ndarray:
    out = np.empty(len(rows), dtype=CONTRIBUTION)
    out["dst"], out["partial"] = rows[:, 0], rows[:, 1]
    return out


class PageRankWorkload(Workload):
    """Power-iteration PageRank over GStruct edges."""

    name = "pagerank"
    CPU_FLOPS = 6.0          # divide + scatter-add per edge
    CPU_OVERHEAD_S = 0.72e-6  # per-edge tuple handling
    GPU_FLOPS = 6.0
    GPU_EFFICIENCY = 0.15    # scattered atomics

    def __init__(self, nominal_pages: float = 5e6, real_pages: int = 4_000,
                 iterations: int = 10, **kw):
        super().__init__(nominal_pages * EDGES_PER_PAGE,
                         real_pages * EDGES_PER_PAGE,
                         element_nbytes=Edge.itemsize(),
                         iterations=iterations, **kw)
        self.nominal_pages = float(nominal_pages)
        self.real_pages = int(real_pages)

    # -- data ---------------------------------------------------------------
    def _block(self, n: int) -> np.ndarray:
        arr = Edge.empty(n)
        arr["src"] = self.rng.integers(0, self.real_pages,
                                       size=n).astype(np.int32)
        # Preferential attachment-ish targets: low ids are popular.
        dst = (self.rng.zipf(1.4, size=n) - 1) % self.real_pages
        arr["dst"] = dst.astype(np.int32)
        return arr

    def register_kernels(self, registry) -> None:
        ensure_kernel(registry, KernelSpec(
            "pagerank_contrib", pagerank_contrib_kernel,
            flops_per_element=self.GPU_FLOPS,
            bytes_per_element=Edge.itemsize() + 8.0,
            efficiency=self.GPU_EFFICIENCY))

    # -- driver -----------------------------------------------------------------
    def driver(self, session, mode):
        gpu = mode == "gpu"
        # On the GPU, one partition per device: ranks/degrees upload once
        # per device.
        edges = session.read_hdfs(
            self.path, self.element_nbytes, scale=self.scale,
            parallelism=gpu_parallelism(session) if gpu else None).persist()
        n = self.real_pages
        ranks = np.full(n, 1.0 / n)
        # Degree table computed once (driver-side metadata job in real
        # deployments; here from the generator for determinism).
        out_degree = np.zeros(n, dtype=np.float64)
        for block in session.cluster.hdfs.locate(self.path):
            np.add.at(out_degree, block.payload["src"], 1.0)
        out_degree[out_degree == 0] = 1.0
        page_scale = self.nominal_pages / self.real_pages
        ranks_input = ExtraInput(lambda: ranks, element_nbytes=8.0,
                                 scale=page_scale, cacheable=False)
        degree_input = ExtraInput.constant(
            out_degree, element_nbytes=8.0, scale=page_scale, cacheable=True)
        times = []
        for it in range(self.iterations):
            if gpu:
                partial_rows = edges.gpu_map_partition(
                    "pagerank_contrib",
                    extra_inputs={"ranks": ranks_input,
                                  "out_degree": degree_input},
                    cache=True, cache_key_base=("pagerank", self.path),
                    out_element_nbytes=16.0)
            else:
                contrib_fn = lambda e, r=ranks: _contrib_partials(
                    e, r, out_degree)
                if self.vectorized:
                    contrib_fn = vectorized(contrib_fn)
                partial_rows = edges.map_partition(
                    contrib_fn,
                    cost=OpCost(flops_per_element=self.CPU_FLOPS,
                                out_element_nbytes=16.0,
                                element_overhead_s=self.CPU_OVERHEAD_S),
                    name="pagerank-contrib")
            # Shuffle the partials by destination and sum — the phase that
            # caps PageRank's speedup.  One spelling, either price list:
            # marked, the float64 rows shuffle zero-copy; unmarked, the plan
            # keeps the per-record deserialisation step it is priced with.
            key, total = field(0), field_sum(1)
            if self.vectorized:
                key, total = vectorized(key), vectorized(total)
            else:
                partial_rows = partial_rows.map_partition(
                    _contributions, cost=OpCost(flops_per_element=0.0),
                    name="pagerank-tuples")
            summed = partial_rows.group_by(key).reduce(
                total, cost=OpCost(flops_per_element=1.0),
                name="pagerank-sum")
            result = yield from summed.collect_job(
                job_name=f"pagerank-{mode}-iter{it}")
            ranks = np.full(n, (1.0 - DAMPING) / n)
            # The collected rows applied as one block; unbuffered and in row
            # order, so the sums are a per-row loop's bit for bit.
            dst, contrib = np.asarray(result.value,
                                      dtype=np.float64).reshape(-1, 2).T
            np.add.at(ranks, dst.astype(np.intp), DAMPING * contrib)
            seconds = result.seconds
            if it == self.iterations - 1:
                write = yield from session.from_collection(
                    ranks, element_nbytes=8.0, scale=page_scale
                ).write_hdfs_job(self.output_path)
                seconds += write.seconds
            times.append(seconds)
        return ranks, times
