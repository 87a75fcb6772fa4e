"""The bus's sinks are folds over one fact log: reading them never changes them.

``Observability.emit`` and a span's entry and exit append a row to the fact
log and do nothing else; the tracer draws the rows when read, the registry
and the monitor fold their derivations before any read and when a row is
stated past the monitor's next window boundary.  So *when* a sink is read
must not matter: a random fact program — valid attrs, non-decreasing times
across window boundaries, nested and erroring spans, values that fire and
resolve the default alert rules — read at random points in between ends in
the same Chrome trace, metrics JSON, Prometheus text, monitor summary and
post-mortem bundles as the same program read only at the end.

Where a fact lands does not depend on when it is folded either: every
derivation of a row, registry and monitor alike, lands in the window of the
row's own instant (``TestWindowOfTheInstant``).
"""

import json
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.obs import Observability

WORKERS = ("worker0", "worker1")
DEVICES = ("worker0-gpu0", "worker1-gpu0")
_ops = st.sampled_from(("map", "reduce"))
_workers = st.sampled_from(WORKERS)
_bytes = st.integers(0, 1 << 20)


def _fact(fact, process, thread, interval=False, **attrs):
    """One emit step: ``("emit", fact, process, thread, back, attrs)``;
    ``back`` (an interval fact's length, measured back from now) is None
    for a fact stated at now."""
    back = st.sampled_from((0.0, 0.2, 1.5)) if interval else st.none()
    return st.tuples(st.just("emit"), st.just(fact), process, st.just(thread),
                     back, st.fixed_dictionaries(attrs))


EMITS = st.one_of(
    _fact("h2d", st.sampled_from(DEVICES), "copy:h2d", True, nbytes=_bytes),
    _fact("d2h", st.sampled_from(DEVICES), "copy:d2h", True, nbytes=_bytes),
    _fact("kernel", st.sampled_from(DEVICES), "kernel", True,
          kernel=st.sampled_from(("k0", "k1")),
          seconds=st.floats(0.0, 0.5)),
    _fact("cache.probe", st.sampled_from(DEVICES), "cache",
          outcome=st.sampled_from(("hit", "miss"))),
    _fact("gwork.submit", st.sampled_from(DEVICES), "schedule"),
    _fact("gpu.pipeline", st.sampled_from(DEVICES), None),
    _fact("place", st.just("master"), "scheduler",
          reason=st.sampled_from(("local", "any")), worker=_workers,
          depth=st.integers(0, 5)),
    _fact("heartbeat.missed", st.none(), None, worker=_workers),
    _fact("worker.dead", st.just("master"), "failures", worker=_workers),
    _fact("task.retry", _workers, "slot0", op=_ops),
    _fact("churn.join", st.just("master"), "membership", worker=_workers),
    _fact("pipeline.queue", st.none(), None, op=_ops,
          max_depth=st.integers(0, 4), stalls=st.integers(0, 2)),
    _fact("slot_pressure", st.none(), None, pressure=st.floats(0.0, 2.0)),
    _fact("job.totals", st.none(), None, job=st.just("j0"),
          subtasks=st.integers(1, 8), shuffle_bytes=_bytes,
          zero_copy_bytes=st.integers(0, 3), spill_bytes=st.just(0)),
)

#: span fact -> (process, thread, attrs at entry, attrs ``set`` mid-span)
SPANS = {
    "job": (st.just("master"), "jobmanager", {"job": st.just("j0")}, {}),
    "task": (_workers, "slot0",
             {"op": _ops, "subtask": st.integers(0, 3),
              "deploy_s": st.floats(0.0, 1.0)},
             {"failed": st.booleans()}),
    "backpressure": (_workers, "pipeline", {"op": _ops}, {}),
    "h2d.starved": (st.sampled_from(DEVICES), "pipeline", {}, {}),
    "hdfs.read": (_workers, "hdfs",
                  {"nbytes": _bytes, "block": st.integers(0, 9),
                   "local": st.booleans()},
                  {"nbytes": _bytes}),
}

READS = {
    "len": lambda obs: len(obs.tracer),
    "snapshot": lambda obs: obs.registry.snapshot(),
    "trends": lambda obs: obs.monitor.trends(),
    "dump": lambda obs: obs.recorder._bundle("probe", None, obs.monitor,
                                             obs.env.now),
}

_leaves = st.one_of(
    st.tuples(st.just("wait"), st.sampled_from((0.0, 0.05, 0.3, 0.7, 1.0,
                                                2.5))),
    EMITS,
    st.tuples(st.just("read"), st.sampled_from(sorted(READS))),
)


def _span(children):
    return st.sampled_from(sorted(SPANS)).flatmap(lambda fact: st.tuples(
        st.just("span"), st.just(fact), SPANS[fact][0],
        st.fixed_dictionaries(SPANS[fact][2]),
        st.fixed_dictionaries(SPANS[fact][3]), st.booleans(),
        st.lists(children, max_size=4)))


PROGRAMS = st.lists(st.recursive(_leaves, _span, max_leaves=24),
                    max_size=30)


class _Boom(Exception):
    pass


def run(program, reads=True, tracing=True):
    """Play ``program`` on a fresh bus; the artefacts it ends with, and
    every post-mortem bundle it dumped."""
    env = mock.Mock(now=0.0)
    obs = Observability(env, tracing=tracing, monitoring=True,
                        flight_recorder=True)
    bundles = []
    dump = obs.recorder._dump

    def keep(*args):
        name = dump(*args)
        bundles.append(json.dumps(obs.recorder.last_bundle, sort_keys=True))
        return name

    obs.recorder._dump = keep
    for worker in WORKERS:
        obs.register_worker(worker)
    for device in DEVICES:
        obs.register_device(device, pcie_bps=8e9)

    def play(steps):
        for step in steps:
            kind = step[0]
            if kind == "wait":
                env.now += step[1]
            elif kind == "read":
                if reads:
                    READS[step[1]](obs)
            elif kind == "emit":
                _, fact, process, thread, back, attrs = step
                if back is None:
                    obs.emit(fact, process, thread, **attrs)
                else:
                    obs.emit(fact, process, thread, max(env.now - back, 0.0),
                             env.now, **attrs)
            else:
                _, fact, process, attrs, late, error, children = step
                try:
                    with obs.span(fact, process, SPANS[fact][1],
                                  **attrs) as span:
                        play(children)
                        span.set(**late)
                        if error:
                            raise _Boom
                except _Boom:
                    pass

    play(program)
    obs.monitor.finalize()
    return (json.dumps(obs.tracer.to_chrome(), sort_keys=True),
            obs.registry.to_json(), obs.registry.render_prometheus(),
            json.dumps(obs.monitor.summary(), sort_keys=True), bundles)


def _stall(seconds):
    return ("span", "backpressure", "worker0", {"op": "map"}, {}, False,
            [("wait", seconds)])


#: Fires and resolves both default rules: a stall in three windows running,
#: a missed heartbeat, then quiet windows; reads fall in between.
ALERTING = [_stall(0.5), ("wait", 0.6), ("read", "dump"), _stall(0.5),
            ("wait", 0.6), _stall(0.5), ("read", "trends"),
            ("emit", "heartbeat.missed", None, None, None,
             {"worker": "worker1"}),
            ("wait", 1.0), ("read", "snapshot"), ("wait", 4.0),
            ("read", "len")]

#: A job ending at 1.2 s, read before and after its window closes.
JOB = [("wait", 0.2),
       ("span", "job", "master", {"job": "j0"}, {}, False, [("wait", 1.0)]),
       ("read", "snapshot"), ("wait", 1.0)]


def points(summary):
    return {(s["name"], tuple(s["labels"].items())): s["points"]
            for s in json.loads(summary)["series"]}


class TestReadPointIndependence:
    @given(PROGRAMS, st.booleans())
    @example(ALERTING, True)
    @example(JOB, True)
    @example(JOB, False)
    @settings(max_examples=60, deadline=None)
    def test_reads_in_between_change_nothing(self, program, tracing):
        assert run(program, reads=True, tracing=tracing) \
            == run(program, reads=False, tracing=tracing)

    def test_the_alerting_program_fires_and_resolves_both_rules(self):
        summary = json.loads(run(ALERTING)[3])
        assert [(a["rule"], a["fired_at_s"], a["resolved_at_s"])
                for a in summary["alerts"]] \
            == [("backpressure_stall", 3.0, 6.0),
                ("worker_unhealthy", 3.0, 6.0)]

    def test_alert_bundles_and_instants_are_stamped_at_the_window_end(self):
        trace, _, _, summary, bundles = run(ALERTING)
        fired = [(a["rule"], a["fired_at_s"])
                 for a in json.loads(summary)["alerts"]]
        docs = [json.loads(b) for b in bundles]
        assert [(d["reason"], d["triggered_at_s"]) for d in docs] \
            == [(f"alert:{rule}", at) for rule, at in fired]
        for doc in docs:
            assert doc["trace_slice"]
            assert all(e["ts"] + e["dur"] <= doc["triggered_at_s"]
                       for e in doc["trace_slice"])
        instants = sorted((e["name"], e["ts"] / 1e6)
                          for e in json.loads(trace)["traceEvents"]
                          if e.get("cat") == "monitor")
        assert instants == sorted(
            [(f"alert.fired:{rule}", 3.0) for rule, _ in fired]
            + [(f"alert.resolved:{rule}", 6.0) for rule, _ in fired])


class TestWindowOfTheInstant:
    def test_a_job_lands_whole_in_the_window_of_its_end(self):
        series = points(run(JOB)[3])
        # The job ended at 1.2 s: counted and timed in window 1, whichever
        # read folded it.
        assert series["jobs.completed", ()] == [[1, 1.0]]
        assert [i for i, _ in series["job.makespan_s", ()]] == [1]
        assert [i for i, _ in series["job.makespan_s", (("job", "j0"),)]] \
            == [1]

    def test_a_fact_at_a_window_boundary_lands_in_the_window_it_opens(self):
        program = [("wait", 0.5),
                   ("emit", "chaos", "master", "chaos", None,
                    {"kind": "worker-kill"}),
                   ("wait", 1.5),
                   ("emit", "chaos", "master", "chaos", None,
                    {"kind": "worker-kill"})]
        assert points(run(program)[3])[
            "chaos.events", (("kind", "worker-kill"),)] == [[0, 1.0],
                                                            [2, 1.0]]

    def test_a_fact_stated_late_is_refused_where_stated(self):
        env = mock.Mock(now=2.5)
        obs = Observability(env, monitoring=True)
        with pytest.raises(ConfigError, match=r"fact 'h2d' at t=0\.75 is "
                           r"stated late, at t=2\.5"):
            obs.emit("h2d", "worker0-gpu0", "copy:h2d", 0.5, 0.75, nbytes=8)
        obs.emit("h2d", "worker0-gpu0", "copy:h2d", 2.25, 2.5, nbytes=8)
        assert obs.registry.sum_values("gpu.pcie.h2d.bytes") == 8

    def test_a_fact_for_a_closed_window_is_an_error(self):
        env = mock.Mock(now=2.5)
        obs = Observability(env, monitoring=True)
        obs.monitor.finalize()                      # closes window 2
        obs.emit("chaos", kind="worker-kill")
        env.now = 3.5
        obs.emit("chaos", kind="worker-kill")
        with pytest.raises(ConfigError, match=r"fact 'chaos' at t=2\.5 is "
                           r"for closed window 2 \(window 3 is open\)"):
            obs.registry.snapshot()
        # The row is dropped; the one after it still folds.
        assert obs.registry.sum_values("chaos.events") == 1
        env.now = 4.5
        obs.monitor.tick()
        assert [list(s.points) for s in
                obs.monitor.store.family("chaos.events")] == [[(3, 1.0)]]
