"""Deterministic anomaly and trend detectors over metric windows.

GMonitor's :class:`~repro.obs.monitor.TimeSeriesStore` yields one value
per closed window ``(idx, value)``; the detectors here turn those points
into drift scores, slopes, and changepoints:

* :func:`ewma_zscores` — online EWMA mean/variance; each point scored
  against the smoothed state *before* it arrived (drift z-score).
* :func:`slope_of` / :func:`window_slopes` — least-squares slope of a
  trailing window (trend estimation, units: value per window).
* :func:`changepoints` — split a trailing window in half and flag a
  mean shift larger than ``z_threshold`` pooled standard deviations.
* :class:`SlidingTrend` — the online form used by
  :class:`~repro.obs.monitor.AlertEngine` ``trend_above``/``trend_below``
  predicates and by the autoscaler's predictive policies.

Everything is pure arithmetic over the values fed in — no randomness, no
clock access — so identical seeded simulation runs produce bit-identical
detector output (asserted in ``tests/obs/test_monitor.py``).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Iterable, List, Optional, Sequence, Tuple

Point = Tuple[int, float]

#: Variance below this is treated as "flat": z-scores saturate instead of
#: exploding on near-constant series.
_MIN_STD = 1e-9

#: Cap for z-scores on (near-)flat history so a single first deviation
#: reads "anomalous" rather than "infinite".
_MAX_Z = 1e6


def ewma_zscores(points: Sequence[Point], alpha: float = 0.3,
                 warmup: int = 3) -> List[Tuple[int, float]]:
    """Drift z-score per point against the EWMA state before it.

    The first ``warmup`` points only train the smoother (score 0.0).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
    return _replay(points, SlidingTrend(alpha=alpha, warmup=warmup),
                   SlidingTrend.zscore)


def slope_of(values: Sequence[float]) -> float:
    """Least-squares slope of equally spaced values (per-step units)."""
    n = len(values)
    if n < 2:
        return 0.0
    mean_x = (n - 1) / 2.0
    mean_y = sum(values) / n
    num = sum((i - mean_x) * (float(v) - mean_y)
              for i, v in enumerate(values))
    den = sum((i - mean_x) ** 2 for i in range(n))
    return num / den if den else 0.0


def window_slopes(points: Sequence[Point], window: int = 8
                  ) -> List[Tuple[int, float]]:
    """Trailing-window least-squares slope at each point."""
    return _replay(points, SlidingTrend(window=window), SlidingTrend.slope)


def _replay(points: Sequence[Point], trend: "SlidingTrend",
            read) -> List[Tuple[int, float]]:
    """``read(trend)`` after feeding each point's value, per point."""
    out: List[Tuple[int, float]] = []
    for idx, value in points:
        trend.update(value)
        out.append((idx, read(trend)))
    return out


def changepoints(points: Sequence[Point], window: int = 8,
                 z_threshold: float = 3.0) -> List[int]:
    """Indices where the trailing window's two halves differ in mean.

    A simple two-sample mean-shift test: the trailing ``window`` values
    are split in half; flag the point when |mean2 - mean1| exceeds
    ``z_threshold`` pooled standard deviations (with a flat-series guard).
    Consecutive detections are collapsed to the first.
    """
    if window < 4:
        raise ValueError(f"window must be >= 4, got {window!r}")
    values: Deque[Tuple[int, float]] = deque(maxlen=window)
    out: List[int] = []
    in_shift = False
    for idx, value in points:
        values.append((idx, float(value)))
        if len(values) < window:
            in_shift = False
            continue
        half = window // 2
        first = [v for _, v in list(values)[:half]]
        second = [v for _, v in list(values)[half:]]
        m1 = sum(first) / len(first)
        m2 = sum(second) / len(second)
        var1 = sum((v - m1) ** 2 for v in first) / len(first)
        var2 = sum((v - m2) ** 2 for v in second) / len(second)
        pooled = math.sqrt((var1 + var2) / 2.0)
        scale = max(pooled, _MIN_STD, 1e-3 * max(abs(m1), abs(m2)))
        shifted = abs(m2 - m1) > z_threshold * scale
        if shifted and not in_shift:
            out.append(idx)
        in_shift = shifted
    return out


class SlidingTrend:
    """Online trend state over the last ``window`` values of one series.

    Feed one value per closed window (or per autoscaler tick); read the
    current :meth:`slope`, :meth:`zscore`, and :meth:`mean` at any time.
    Pure arithmetic — safe to drive from simulation processes without
    touching the clock.
    """

    __slots__ = ("window", "alpha", "warmup", "values",
                 "_ewma_mean", "_ewma_var", "_count", "_last_z")

    def __init__(self, window: int = 8, alpha: float = 0.3,
                 warmup: int = 3):
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window!r}")
        self.window = window
        self.alpha = alpha
        self.warmup = warmup
        self.values: Deque[float] = deque(maxlen=window)
        self._ewma_mean = 0.0
        self._ewma_var = 0.0
        self._count = 0
        self._last_z = 0.0

    def update(self, value: float) -> None:
        value = float(value)
        if self._count < self.warmup:
            self._last_z = 0.0
        else:
            std = math.sqrt(self._ewma_var)
            if std < _MIN_STD:
                self._last_z = 0.0 if abs(value - self._ewma_mean) < _MIN_STD \
                    else math.copysign(_MAX_Z, value - self._ewma_mean)
            else:
                self._last_z = (value - self._ewma_mean) / std
        if self._count == 0:
            self._ewma_mean, self._ewma_var = value, 0.0
        else:
            diff = value - self._ewma_mean
            self._ewma_mean += self.alpha * diff
            self._ewma_var = (1.0 - self.alpha) * \
                (self._ewma_var + self.alpha * diff * diff)
        self._count += 1
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def count(self) -> int:
        """Total values ever fed (not capped by the window)."""
        return self._count

    def last(self) -> Optional[float]:
        return self.values[-1] if self.values else None

    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    def slope(self) -> float:
        """Least-squares slope over the retained window (per step)."""
        return slope_of(list(self.values))

    def zscore(self) -> float:
        """EWMA drift z-score of the most recent value."""
        return self._last_z

    def snapshot(self) -> dict:
        """A JSON-able view (used by ``GMonitor.trends()``)."""
        return {
            "n": len(self.values),
            "last": self.last(),
            "mean": self.mean(),
            "slope": self.slope(),
            "zscore": self.zscore(),
            "direction": ("up" if self.slope() > 0.0
                          else "down" if self.slope() < 0.0 else "flat"),
        }


def trend_snapshot(points: Iterable[Point], window: int = 8,
                   alpha: float = 0.3, warmup: int = 3) -> dict:
    """One-shot :class:`SlidingTrend` snapshot over stored points."""
    trend = SlidingTrend(window=window, alpha=alpha, warmup=warmup)
    for _, value in points:
        if isinstance(value, dict):
            # Histogram windows: score the count by default.
            value = value.get("count", 0.0)
        trend.update(float(value))
    return trend.snapshot()
