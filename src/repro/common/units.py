"""Byte/time/rate unit helpers.

All simulated times are in **seconds** (floats) and all sizes in **bytes**
(ints).  These helpers exist so call sites read like the paper:
``transfer(2 * GiB)`` instead of ``transfer(2147483648)``.
"""

from __future__ import annotations

# -- sizes (decimal, as used by disk/network vendors and the paper's "GB") ---
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

# -- sizes (binary, as used by memory subsystems and Table 2's byte counts) --
KiB = 1 << 10
MiB = 1 << 20
GiB = 1 << 30

# -- times --------------------------------------------------------------------
USEC = 1e-6
MSEC = 1e-3
SEC = 1.0
MINUTE = 60.0

# -- compute ------------------------------------------------------------------
GFLOPS = 1e9
TFLOPS = 1e12

