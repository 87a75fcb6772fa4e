"""The paper's benchmark workloads (§6.2, Table 1).

Six benchmarks — KMeans, PageRank, WordCount, ConnectedComponents (from the
in-memory HiBench suite), LinearRegression and SpMV (from Flink's examples) —
plus PointAdd (the paper's running example, Algorithm 3.1), over synthetic
generators.

Each workload writes its algorithm once, as one ``driver(session, mode)``
following the paper's driver structure: read the input from HDFS (first
iteration), iterate in memory with the GPU cache active, write the result
back to HDFS (last iteration).  At each step ``mode`` picks the operator: the
GPU kernel op (GFlink) or its CPU twin, a Flink UDF with its ``OpCost`` —
moving an application to the GPU changes an operator, not the program.
``run(...)`` returns per-iteration simulated times, which is what Figs. 5–8
plot.
"""

from repro.workloads.base import (
    Workload,
    WorkloadResult,
    ensure_kernel,
    even_chunk_sizes,
    run_concurrent,
)
from repro.workloads.generators import TABLE1, table1_sizes
from repro.workloads.kmeans import KMeansWorkload
from repro.workloads.linear_regression import LinearRegressionWorkload
from repro.workloads.spmv import SpMVWorkload
from repro.workloads.wordcount import WordCountWorkload
from repro.workloads.pagerank import PageRankWorkload
from repro.workloads.connected_components import ConnectedComponentsWorkload
from repro.workloads.pointadd import PointAddWorkload

__all__ = [
    "Workload",
    "WorkloadResult",
    "ensure_kernel",
    "even_chunk_sizes",
    "run_concurrent",
    "TABLE1",
    "table1_sizes",
    "KMeansWorkload",
    "LinearRegressionWorkload",
    "SpMVWorkload",
    "WordCountWorkload",
    "PageRankWorkload",
    "ConnectedComponentsWorkload",
    "PointAddWorkload",
]
