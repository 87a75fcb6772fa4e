"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.common import Environment, AllOf
from repro.common.errors import InterruptError, SimulationError
from repro.common.simclock import ConditionValue


@pytest.fixture
def env():
    return Environment()


class TestClockBasics:
    def test_time_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=12.5).now == 12.5

    def test_timeout_advances_clock(self, env):
        env.timeout(3.0)
        env.run()
        assert env.now == 3.0

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_run_until_time_stops_exactly(self, env):
        env.timeout(10.0)
        env.run(until=4.0)
        assert env.now == 4.0

    def test_run_until_past_time_rejected(self, env):
        env.timeout(5.0)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_step_on_empty_schedule_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()


class TestProcesses:
    def test_process_returns_value(self, env):
        def proc():
            yield env.timeout(1.0)
            return 42

        p = env.process(proc())
        assert env.run(until=p) == 42
        assert env.now == 1.0

    def test_timeout_value_passed_to_process(self, env):
        seen = []

        def proc():
            value = yield env.timeout(2.0, value="payload")
            seen.append(value)

        env.process(proc())
        env.run()
        assert seen == ["payload"]

    def test_sequential_timeouts_accumulate(self, env):
        def proc():
            yield env.timeout(1.0)
            yield env.timeout(2.5)
            return env.now

        p = env.process(proc())
        assert env.run(until=p) == 3.5

    def test_processes_interleave(self, env):
        trace = []

        def worker(name, delay):
            yield env.timeout(delay)
            trace.append((name, env.now))

        env.process(worker("slow", 2.0))
        env.process(worker("fast", 1.0))
        env.run()
        assert trace == [("fast", 1.0), ("slow", 2.0)]

    def test_same_time_events_fifo(self, env):
        trace = []

        def worker(name):
            yield env.timeout(1.0)
            trace.append(name)

        for name in "abc":
            env.process(worker(name))
        env.run()
        assert trace == ["a", "b", "c"]

    def test_process_waits_on_process(self, env):
        def inner():
            yield env.timeout(3.0)
            return "inner-result"

        def outer():
            result = yield env.process(inner())
            return result

        p = env.process(outer())
        assert env.run(until=p) == "inner-result"

    def test_exception_propagates_to_waiter(self, env):
        def failing():
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        def waiter():
            try:
                yield env.process(failing())
            except RuntimeError as exc:
                return f"caught {exc}"

        p = env.process(waiter())
        assert env.run(until=p) == "caught boom"

    def test_unhandled_failure_surfaces_from_run(self, env):
        def failing():
            yield env.timeout(1.0)
            raise RuntimeError("nobody catches this")

        env.process(failing())
        with pytest.raises(RuntimeError, match="nobody catches"):
            env.run()

    def test_run_until_failed_process_raises(self, env):
        def failing():
            yield env.timeout(1.0)
            raise ValueError("direct")

        p = env.process(failing())
        with pytest.raises(ValueError, match="direct"):
            env.run(until=p)

    def test_yield_non_event_fails_process(self, env):
        def bad():
            yield "not an event"

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_run_until_never_fires_deadlock(self, env):
        never = env.event()

        def waiter():
            yield never

        p = env.process(waiter())
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(until=p)

    def test_run_until_already_processed_event(self, env):
        def quick():
            yield env.timeout(1.0)
            return "done"

        p = env.process(quick())
        env.run()
        assert env.run(until=p) == "done"


class TestEvents:
    def test_manual_succeed_wakes_waiters(self, env):
        signal = env.event()
        seen = []

        def waiter():
            value = yield signal
            seen.append((env.now, value))

        def trigger():
            yield env.timeout(5.0)
            signal.succeed("go")

        env.process(waiter())
        env.process(trigger())
        env.run()
        assert seen == [(5.0, "go")]

    def test_double_trigger_rejected(self, env):
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_multiple_waiters_all_woken(self, env):
        signal = env.event()
        woken = []

        def waiter(i):
            yield signal
            woken.append(i)

        for i in range(4):
            env.process(waiter(i))
        signal.succeed()
        env.run()
        assert woken == [0, 1, 2, 3]


class TestConditions:
    def test_all_of_waits_for_slowest(self, env):
        def proc():
            result = yield AllOf(env, [env.timeout(1.0, "a"),
                                       env.timeout(3.0, "b")])
            return (env.now, result.values())

        p = env.process(proc())
        when, values = env.run(until=p)
        assert when == 3.0
        assert values == ["a", "b"]

    def test_empty_all_of_fires_immediately(self, env):
        def proc():
            result = yield env.all_of([])
            return len(result)

        p = env.process(proc())
        assert env.run(until=p) == 0

    def test_all_of_fails_fast(self, env):
        def failing():
            yield env.timeout(1.0)
            raise RuntimeError("sub-failure")

        def proc():
            try:
                yield env.all_of([env.process(failing()),
                                  env.timeout(10.0)])
            except RuntimeError:
                return env.now

        p = env.process(proc())
        assert env.run(until=p) == 1.0

    def test_condition_value_mapping(self, env):
        t1 = env.timeout(1.0, "x")
        cv = ConditionValue([t1])
        env.run()
        assert cv[t1] == "x"
        assert t1 in cv
        with pytest.raises(KeyError):
            _ = cv[env.event()]


class TestInterrupts:
    def test_interrupt_wakes_sleeping_process(self, env):
        log = []

        def sleeper():
            try:
                yield env.timeout(100.0)
            except InterruptError as exc:
                log.append((env.now, exc.cause))

        def interrupter(victim):
            yield env.timeout(2.0)
            victim.interrupt(cause="preempted")

        victim = env.process(sleeper())
        env.process(interrupter(victim))
        env.run()
        assert log == [(2.0, "preempted")]

    def test_interrupt_finished_process_is_noop(self, env):
        def quick():
            yield env.timeout(1.0)

        def late_interrupter(victim):
            yield env.timeout(5.0)
            if victim.is_alive:
                victim.interrupt()
            return "ok"

        victim = env.process(quick())
        p = env.process(late_interrupter(victim))
        assert env.run(until=p) == "ok"

    def test_self_interrupt_rejected(self, env):
        def proc():
            with pytest.raises(SimulationError):
                env.active_process.interrupt()
            yield env.timeout(0)

        env.process(proc())
        env.run()

    def test_interrupted_process_can_continue(self, env):
        def resilient():
            try:
                yield env.timeout(100.0)
            except InterruptError:
                pass
            yield env.timeout(1.0)
            return env.now

        def interrupter(victim):
            yield env.timeout(2.0)
            victim.interrupt()

        victim = env.process(resilient())
        env.process(interrupter(victim))
        assert env.run(until=victim) == 3.0


class TestActiveProcess:
    def test_active_process_visible_inside(self, env):
        captured = []

        def proc():
            captured.append(env.active_process)
            yield env.timeout(0)

        p = env.process(proc())
        env.run()
        assert captured == [p]

    def test_active_process_none_outside(self, env):
        env.run()
        assert env.active_process is None
