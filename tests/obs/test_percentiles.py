"""One percentile rule: every consumer reports the nearest-rank value.

The registry snapshot, a monitor histogram window, the SLO tracker, the
profiler's per-operator task latencies and the chaos recovery report all
summarise observations by ``sorted(obs)[ceil(q * n) - 1]`` — a value that
was observed — through :func:`repro.common.stats.nearest_rank`.
"""

import math
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.flink.chaos import ChaosEngine
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import SLObjective, SLOTracker, TimeSeriesStore
from repro.obs.profile import classify_operators
from tests.obs.test_profile import Spans, add_operator, add_task

QUANTILES = {"p50": 0.5, "p95": 0.95, "p99": 0.99, "p999": 0.999}


def registry(obs):
    h = MetricsRegistry().histogram("h")
    for v in obs:
        h.observe(v)
    return h.snapshot_value()


def monitor_window(obs):
    series = TimeSeriesStore().series("h", "histogram")
    for v in obs:
        series.record(0, v)
    return series.close(0)


def slo(obs):
    tracker = SLOTracker(TimeSeriesStore())
    tracker.add(SLObjective("lat", "latency", target=1.0, percentile=0.5))
    for v in obs:
        tracker.observe_latency(0, "lat", v)
    [row] = tracker.summary()
    return {**row["observed"], "violated": row["violated"]}


def profile(obs):
    spans = Spans()
    add_operator(spans, "A", 0.0, max(obs) + 1.0)
    for k, v in enumerate(obs):
        add_task(spans, "A", 0.0, v, slot=f"slot{k}", subtask=k)
    return classify_operators(spans.trace())["A"]["task_latency_s"]


def chaos(obs):
    engine = SimpleNamespace(
        applied=[], skipped=[], declared={},
        recovery_latencies=lambda: [{"recovery_latency_s": v} for v in obs])
    return ChaosEngine.summary(engine)["recovery_latency_s"]


CONSUMERS = (registry, monitor_window, slo, profile, chaos)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e4), min_size=1,
                max_size=40))
def test_every_consumer_reports_an_observed_value(obs):
    ordered = sorted(obs)
    expected = {key: ordered[math.ceil(q * len(obs)) - 1]
                for key, q in QUANTILES.items()}
    for consumer in CONSUMERS:
        report = consumer(obs)
        reported = {key: report[key] for key in QUANTILES if key in report}
        assert {"p50", "p95", "p99"} <= set(reported), consumer.__name__
        assert reported == {key: expected[key] for key in reported}, \
            consumer.__name__
        values = [reported[key] for key in QUANTILES if key in reported]
        assert values == sorted(values) and values[-1] <= ordered[-1]
    assert slo(obs)["violated"] is (expected["p50"] > 1.0)
