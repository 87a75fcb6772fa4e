"""MetricsRegistry unit tests: counters, gauges, histograms, snapshots."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    metric_key,
    parse_prometheus,
    prometheus_name,
    render_key,
)


class TestIdentity:
    def test_key_sorts_and_stringifies_labels(self):
        k1 = metric_key("m", {"b": 2, "a": "x"})
        k2 = metric_key("m", {"a": "x", "b": "2"})
        assert k1 == k2

    def test_render_key(self):
        name, labels = metric_key("reads", {"node": "w0", "kind": "local"})
        assert render_key(name, labels) == "reads{kind=local,node=w0}"
        assert render_key("bare", ()) == "bare"

    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        c1 = reg.counter("hits", device="d0")
        c2 = reg.counter("hits", device="d0")
        assert c1 is c2
        assert reg.counter("hits", device="d1") is not c1
        assert len(reg) == 2

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("m", a=1)
        with pytest.raises(ConfigError, match="already registered"):
            reg.gauge("m", a=1)


class TestCounterGauge:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        c.inc()
        c.inc(2.5)
        assert reg.snapshot() == {"n": 3.5}

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigError, match="cannot decrease"):
            MetricsRegistry().counter("n").inc(-1)

    def test_gauge_sets(self):
        reg = MetricsRegistry()
        g = reg.gauge("temp", node="w0")
        g.set(10)
        g.set(4)
        assert reg.snapshot() == {"temp{node=w0}": 4.0}

    def test_sum_values_across_labels(self):
        reg = MetricsRegistry()
        reg.counter("reads", locality="local").inc(3)
        reg.counter("reads", locality="remote").inc(4)
        assert reg.sum_values("reads") == 7.0


class TestHistogram:
    def test_summary_statistics(self):
        h = Histogram("t", ())
        for v in (0.5, 1.5, 2.0):
            h.observe(v)
        snap = h.snapshot_value()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(4.0)
        assert snap["min"] == 0.5
        assert snap["max"] == 2.0
        assert snap["mean"] == pytest.approx(4.0 / 3)

    def test_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (0.5, 5.0, 100.0, 5000.0):
            h.observe(v)
        buckets = h.snapshot_value()["buckets"]
        assert buckets == {"le_1e-06": 0, "le_0.0001": 0, "le_0.01": 0,
                           "le_1": 1, "le_10": 1, "le_100": 1,
                           "le_1000": 0, "le_inf": 1}

    def test_empty_histogram_snapshot(self):
        assert Histogram("t", ()).snapshot_value() == {"count": 0,
                                                       "sum": 0.0}

    def test_percentiles_in_snapshot(self):
        h = Histogram("t", ())
        for v in (0.5, 1.5, 2.0):
            h.observe(v)
        snap = h.snapshot_value()
        # Nearest rank: the ceil(q * 3)-th smallest observation.
        assert (snap["p50"], snap["p95"], snap["p99"], snap["p999"]) \
            == (1.5, 2.0, 2.0, 2.0)

    def test_percentile_interpolates_within_bucket(self):
        h = Histogram("t", ())
        for v in (1.0, 9.0):  # one bucket holds both samples
            h.observe(v)
        # The median of two is the lower one, not a point between them.
        assert h.percentile(0.5) == 1.0
        assert h.percentile(0.51) == 9.0

    def test_percentile_clamped_to_observed_range(self):
        h = Histogram("t", ())
        h.observe(3.0)
        h.observe(4.0)
        assert h.percentile(0.99) == 4.0
        assert h.percentile(0.01) == 3.0
        assert h.percentile(0.0) == 3.0

    def test_percentile_overflow_bucket_uses_max(self):
        h = Histogram("t", ())
        for v in (5000.0, 7000.0, 9000.0):  # all past the last bound
            h.observe(v)
        assert h.percentile(0.5) == 7000.0
        assert h.percentile(0.99) == 9000.0

    def test_percentile_empty_and_bad_q(self):
        h = Histogram("t", ())
        assert h.percentile(0.5) == 0.0
        with pytest.raises(ConfigError, match="must be in"):
            h.percentile(1.5)


#: Recorded from the bucket-counting histogram this one replaced: the
#: snapshot fields and the Prometheus text that do not depend on the
#: percentile estimator stay what they were, bit for bit.
RECORDED_OBSERVATIONS = {
    "one": [0.5],
    "spread": [3e-7, 0.004, 0.0042, 0.5, 2.0, 12.5, 12.5, 250.0, 4000.0],
    "ties": [1.0, 1.0, 1.0, 10.0, 100.0, 1000.0, 1e-6, 1e-4, 1e-2],
}
RECORDED_SNAPSHOTS = {
    "one": {"count": 1, "sum": 0.5, "min": 0.5, "max": 0.5, "mean": 0.5,
            "stddev": 0.0, "buckets": {
                "le_1e-06": 0, "le_0.0001": 0, "le_0.01": 0, "le_1": 1,
                "le_10": 0, "le_100": 0, "le_1000": 0, "le_inf": 0}},
    "spread": {"count": 9, "sum": 4277.5082003, "min": 3e-07,
               "max": 4000.0, "mean": 475.2786889222222,
               "stddev": 1248.5461883834246, "buckets": {
                   "le_1e-06": 1, "le_0.0001": 0, "le_0.01": 2, "le_1": 1,
                   "le_10": 1, "le_100": 2, "le_1000": 1, "le_inf": 1}},
    "ties": {"count": 9, "sum": 1113.010101, "min": 1e-06, "max": 1000.0,
             "mean": 123.66778900000001, "stddev": 311.3518020529677,
             "buckets": {
                 "le_1e-06": 1, "le_0.0001": 1, "le_0.01": 1, "le_1": 3,
                 "le_10": 1, "le_100": 1, "le_1000": 1, "le_inf": 0}},
}
RECORDED_PROMETHEUS = """\
# TYPE job_makespan_s histogram
job_makespan_s_bucket{case="one",le="1e-06"} 0.0
job_makespan_s_bucket{case="one",le="0.0001"} 0.0
job_makespan_s_bucket{case="one",le="0.01"} 0.0
job_makespan_s_bucket{case="one",le="1"} 1.0
job_makespan_s_bucket{case="one",le="10"} 1.0
job_makespan_s_bucket{case="one",le="100"} 1.0
job_makespan_s_bucket{case="one",le="1000"} 1.0
job_makespan_s_bucket{case="one",le="+Inf"} 1.0
job_makespan_s_sum{case="one"} 0.5
job_makespan_s_count{case="one"} 1.0
job_makespan_s_bucket{case="spread",le="1e-06"} 1.0
job_makespan_s_bucket{case="spread",le="0.0001"} 1.0
job_makespan_s_bucket{case="spread",le="0.01"} 3.0
job_makespan_s_bucket{case="spread",le="1"} 4.0
job_makespan_s_bucket{case="spread",le="10"} 5.0
job_makespan_s_bucket{case="spread",le="100"} 7.0
job_makespan_s_bucket{case="spread",le="1000"} 8.0
job_makespan_s_bucket{case="spread",le="+Inf"} 9.0
job_makespan_s_sum{case="spread"} 4277.5082003
job_makespan_s_count{case="spread"} 9.0
job_makespan_s_bucket{case="ties",le="1e-06"} 1.0
job_makespan_s_bucket{case="ties",le="0.0001"} 2.0
job_makespan_s_bucket{case="ties",le="0.01"} 3.0
job_makespan_s_bucket{case="ties",le="1"} 6.0
job_makespan_s_bucket{case="ties",le="10"} 7.0
job_makespan_s_bucket{case="ties",le="100"} 8.0
job_makespan_s_bucket{case="ties",le="1000"} 9.0
job_makespan_s_bucket{case="ties",le="+Inf"} 9.0
job_makespan_s_sum{case="ties"} 1113.010101
job_makespan_s_count{case="ties"} 9.0
"""


class TestRecordedStatistics:
    def registry(self):
        reg = MetricsRegistry()
        for case, values in RECORDED_OBSERVATIONS.items():
            h = reg.histogram("job.makespan_s", case=case)
            for v in values:
                h.observe(v)
        return reg

    def test_snapshot_fields_are_the_recorded_ones(self):
        snapshot = self.registry().snapshot()
        for case, expected in RECORDED_SNAPSHOTS.items():
            got = snapshot[f"job.makespan_s{{case={case}}}"]
            assert {key: got[key] for key in expected} == expected

    def test_prometheus_text_is_the_recorded_one(self):
        assert self.registry().render_prometheus() == RECORDED_PROMETHEUS


class TestExportSurface:
    def test_snapshot_and_json_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("hits", device="d0").inc(2)
        reg.gauge("used").set(10)
        reg.histogram("lat").observe(0.5)
        doc = json.loads(reg.to_json())
        assert doc["hits{device=d0}"] == 2.0
        assert doc["used"] == 10.0
        assert doc["lat"]["count"] == 1

    def test_render_lines(self):
        reg = MetricsRegistry()
        reg.counter("hits", device="d0").inc(2)
        reg.histogram("lat").observe(1.0)
        text = reg.render()
        assert "hits{device=d0}" in text
        assert "count=1" in text
        assert MetricsRegistry().render() == "no metrics recorded"

    def test_metrics_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z")
        reg.counter("a")
        assert [m.name for m in reg.metrics()] == ["a", "z"]


class TestSpreadStatistics:
    def test_stddev(self):
        h = Histogram("t", ())
        for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            h.observe(v)
        assert h.stats()["stddev"] == pytest.approx(2.0)   # textbook set
        snap = h.snapshot_value()
        assert snap["stddev"] == pytest.approx(2.0)

    def test_stddev_single_observation_is_zero(self):
        h = Histogram("t", ())
        h.observe(3.0)
        assert h.stats()["stddev"] == 0.0

    def test_p999_in_snapshot(self):
        h = Histogram("t", ())
        for v in (0.5, 2.0, 8.0):
            h.observe(v)
        snap = h.snapshot_value()
        assert snap["p99"] <= snap["p999"] <= snap["max"]


class TestPrometheusExposition:
    def make_registry(self):
        reg = MetricsRegistry()
        reg.counter("gpu.pcie.h2d.bytes", device="w0-gpu0").inc(1024)
        reg.counter("gpu.pcie.h2d.bytes", device="w0-gpu1").inc(2048)
        reg.gauge("sched.queue_depth", worker="w0").set(3)
        h = reg.histogram("job.makespan_s")
        for v in (0.5, 5.0, 100.0):
            h.observe(v)
        return reg

    def test_name_sanitization(self):
        assert prometheus_name("gpu.pcie.h2d.bytes") == "gpu_pcie_h2d_bytes"
        assert prometheus_name("9lives") == "_9lives"

    def test_type_lines_and_samples(self):
        text = self.make_registry().render_prometheus()
        assert "# TYPE gpu_pcie_h2d_bytes counter" in text
        assert "# TYPE sched_queue_depth gauge" in text
        assert "# TYPE job_makespan_s histogram" in text
        assert 'gpu_pcie_h2d_bytes{device="w0-gpu0"} 1024' in text

    def test_histogram_buckets_are_cumulative(self):
        samples = parse_prometheus(
            self.make_registry().render_prometheus())
        assert samples[("job_makespan_s_bucket", (("le", "1"),))] == 1.0
        assert samples[("job_makespan_s_bucket", (("le", "10"),))] == 2.0
        assert samples[("job_makespan_s_bucket", (("le", "+Inf"),))] == 3.0
        assert samples[("job_makespan_s_count", ())] == 3.0
        assert samples[("job_makespan_s_sum", ())] == pytest.approx(105.5)

    def test_round_trip(self):
        reg = self.make_registry()
        samples = parse_prometheus(reg.render_prometheus())
        assert samples[("gpu_pcie_h2d_bytes",
                        (("device", "w0-gpu0"),))] == 1024.0
        assert samples[("gpu_pcie_h2d_bytes",
                        (("device", "w0-gpu1"),))] == 2048.0
        assert samples[("sched_queue_depth", (("worker", "w0"),))] == 3.0

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("c", path='a"b\\c').inc(1)
        samples = parse_prometheus(reg.render_prometheus())
        assert samples[("c", (("path", 'a"b\\c'),))] == 1.0

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""
        assert parse_prometheus("") == {}
