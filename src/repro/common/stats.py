"""Order statistics over what was observed.

Every percentile the repository reports — registry and monitor histograms,
SLO objectives, profile task latencies, chaos recovery latencies — is the
nearest-rank value of the observations it summarises, so it is always a
value that occurred.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.common.errors import ConfigError

__all__ = ["nearest_rank"]


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The ``q``-quantile (``0 <= q <= 1``) of the sorted ``ordered``: its
    ``max(ceil(q * n), 1)``-th value, 0.0 when it is empty."""
    if not 0.0 <= q <= 1.0:
        raise ConfigError(f"percentile q must be in [0, 1], got {q}")
    if not ordered:
        return 0.0
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]
