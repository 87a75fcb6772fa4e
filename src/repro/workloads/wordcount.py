"""WordCount (HiBench) — the paper's batch, I/O-bound workload.

"The speedup of WordCount is not high (only 1.1x), because WordCount is a
batch application without iterative execution ... Moreover, the I/O overhead
of WordCount is the bottleneck" (§6.5).  Both paths read the whole corpus
from HDFS, count words, shuffle the per-partition partial counts and write
the totals — the GPU only accelerates the (cheap) counting.

The corpus is pre-tokenized to 32-bit word ids drawn from a Zipf
distribution, matching how a GStruct-based GFlink program would lay the data
out (one ``Unsigned32`` per word).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError
from repro.flink.dataset import OpCost
from repro.flink.iterators import field, field_sum, vectorized
from repro.gpu.kernel import KernelSpec
from repro.workloads.base import Workload, ensure_kernel

VOCABULARY = 10_000
ZIPF_A = 1.3


def _partial_rows(word_ids: np.ndarray) -> np.ndarray:
    """Columnar (word, count) partials for one partition/block, kept as one
    int64 block so the exchange ships it zero-copy."""
    counts = np.bincount(word_ids, minlength=0)
    nz = np.nonzero(counts)[0]
    return np.stack([nz, counts[nz]], axis=1).astype(np.int64)


def wordcount_kernel(inputs, params):
    return {"out": _partial_rows(inputs["in"])}


class WordCountWorkload(Workload):
    """Count word occurrences across the corpus."""

    name = "wordcount"
    CPU_FLOPS = 8.0            # hash + increment per word
    #: Tokenisation (text -> word tokens) runs on the CPU in *both* paths —
    #: the GPU only accelerates counting, which is why the paper measures
    #: only ~1.1x end to end.
    TOKENIZE_OVERHEAD_S = 0.15e-6
    COUNT_OVERHEAD_S = 0.035e-6  # per-word hash-map access (CPU path)
    GPU_FLOPS = 8.0
    GPU_EFFICIENCY = 0.25      # atomics-heavy histogram kernel

    def __init__(self, nominal_elements: float = 2.4e9,
                 real_elements: int = 60_000, **kw):
        if kw.setdefault("iterations", 1) != 1:
            raise ConfigError(f"wordcount is a single-pass batch job: "
                              f"iterations must be 1, not "
                              f"{kw['iterations']!r}")
        super().__init__(nominal_elements, real_elements,
                         element_nbytes=4.0, **kw)

    def _block(self, n: int) -> np.ndarray:
        ids = self.rng.zipf(ZIPF_A, size=n) % VOCABULARY
        return ids.astype(np.int32)

    def register_kernels(self, registry) -> None:
        ensure_kernel(registry, KernelSpec(
            "wordcount_hist", wordcount_kernel,
            flops_per_element=self.GPU_FLOPS, bytes_per_element=4.0,
            efficiency=self.GPU_EFFICIENCY))

    # -- driver -------------------------------------------------------------------
    def driver(self, session, mode):
        tokenize = lambda ids: ids  # text -> word ids; identity on sample
        if self.vectorized:
            tokenize = vectorized(tokenize)
        words = session.read_hdfs(self.path, self.element_nbytes,
                                  scale=self.scale).map_partition(
            tokenize,
            cost=OpCost(flops_per_element=2.0,
                        element_overhead_s=self.TOKENIZE_OVERHEAD_S),
            name="wordcount-tokenize")
        if mode == "gpu":
            partials = words.gpu_map_partition(
                "wordcount_hist", out_element_nbytes=12.0)
            if not self.vectorized:
                # Element-priced: the kernel's int64 rows pass the
                # per-record deserialisation step as the block they are.
                partials = partials.map_partition(
                    lambda rows: rows,
                    cost=OpCost(flops_per_element=0.0),
                    name="wordcount-tuples")
        else:
            # The marker sticks to the function it is put on: the element
            # price needs a callable of its own.
            partials = words.map_partition(
                vectorized(_partial_rows) if self.vectorized
                else lambda ids: _partial_rows(ids),
                cost=OpCost(flops_per_element=self.CPU_FLOPS,
                            out_element_nbytes=12.0,
                            element_overhead_s=self.COUNT_OVERHEAD_S),
                name="wordcount-map")
        key, total = field(0), field_sum(1)
        if self.vectorized:
            key, total = vectorized(key), vectorized(total)
        totals = partials.group_by(key).reduce(
            total, cost=OpCost(flops_per_element=1.0), name="wordcount-sum")
        write = yield from totals.write_hdfs_job(self.output_path)
        return write.value, [write.seconds]
