"""Benchmark-suite configuration.

The benches measure *simulated* cluster time; pytest-benchmark wraps each
experiment once (``rounds=1``) and we attach the paper-style table to
``extra_info``.  Real-sample sizes below keep the whole suite's host time in
the minutes range while leaving the (scale-driven) simulated times at paper
magnitude.
"""

import sys
from pathlib import Path

# Make `from harness import ...` (and the barriered reference clock in
# `tests.flink.conftest`) work regardless of invocation directory.
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(1, str(Path(__file__).resolve().parent.parent))


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
