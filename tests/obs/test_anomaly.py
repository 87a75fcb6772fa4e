"""Unit tests for the dashboard's anomaly overlays.

Pure-arithmetic contracts of :mod:`repro.obs.dashboard`: exact slopes on
linear series, the trend rule the sparkline arrow and ``repro postmortem``
share, changepoint detection on mean shifts, and input validation.
"""

import pytest

from repro.obs.dashboard import changepoints, slope_of, trend_of


class TestSlope:
    def test_exact_on_linear_series(self):
        assert slope_of([1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.0)
        assert slope_of([10.0, 8.0, 6.0]) == pytest.approx(-2.0)
        assert slope_of([0.0, 3.0]) == pytest.approx(3.0)

    def test_flat_and_degenerate(self):
        assert slope_of([5.0, 5.0, 5.0]) == 0.0
        assert slope_of([5.0]) == 0.0
        assert slope_of([]) == 0.0

    def test_trend_reads_the_last_eight_values(self):
        assert trend_of([1.0, 2.0]) is None            # under three
        assert trend_of([1.0, 2.0, 3.0])[:2] == (1.0, "up")
        assert trend_of([9.0, 6.0, 3.0])[:2] == (-3.0, "down")
        # A slope under 1 % of the largest magnitude is flat ...
        assert trend_of([100.0, 100.5, 100.9])[1] == "flat"
        # ... and only the last eight values count.
        assert trend_of([50.0, 0.0] + [1.0] * 8) == (0.0, "flat", 0.0)
        slope, direction, steep = trend_of([0.0, 0.0, 4.0])
        assert (slope, direction, steep) == (2.0, "up", 0.5)


class TestChangepoints:
    def test_detects_mean_shift(self):
        pts = [(i, 1.0 + 0.01 * (i % 2)) for i in range(10)]
        pts += [(10 + i, 9.0 + 0.01 * (i % 2)) for i in range(10)]
        found = changepoints(pts, window=8)
        assert found, "step change not detected"
        # The detection lands while the window straddles the shift.
        assert all(10 <= idx <= 14 for idx in found)

    def test_consecutive_detections_collapse(self):
        pts = [(i, 0.0) for i in range(8)] + \
            [(8 + i, 100.0) for i in range(8)]
        assert len(changepoints(pts, window=8)) == 1

    def test_no_changepoints_on_steady_noise(self):
        pts = [(i, 3.0 + 0.05 * ((-1) ** i)) for i in range(30)]
        assert changepoints(pts, window=8) == []

    def test_short_series_yields_nothing(self):
        assert changepoints([(i, float(i)) for i in range(3)]) == []

    def test_window_validation(self):
        with pytest.raises(ValueError):
            changepoints([], window=3)
