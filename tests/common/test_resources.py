"""Unit tests for Resource / Port / Store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import Environment, Resource, Store
from repro.common.errors import InterruptError, ResourceError
from repro.common.resources import Port, serve


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ResourceError):
            Resource(env, capacity=0)

    def test_grants_up_to_capacity_immediately(self, env):
        res = Resource(env, capacity=2)
        grants = []

        def user(i):
            with res.request() as req:
                yield req
                grants.append((i, env.now))
                yield env.timeout(10.0)

        for i in range(3):
            env.process(user(i))
        env.run(until=0.5)
        assert [g[0] for g in grants] == [0, 1]
        assert res.count == 2
        assert res.queue_length == 1

    def test_release_grants_next_fifo(self, env):
        res = Resource(env, capacity=1)
        order = []

        def user(i, hold):
            with res.request() as req:
                yield req
                order.append((i, env.now))
                yield env.timeout(hold)

        env.process(user(0, 2.0))
        env.process(user(1, 1.0))
        env.process(user(2, 1.0))
        env.run()
        assert order == [(0, 0.0), (1, 2.0), (2, 3.0)]

    def test_context_manager_releases_on_exception(self, env):
        res = Resource(env, capacity=1)

        def failing_user():
            with res.request() as req:
                yield req
                raise RuntimeError("dies holding the resource")

        def second_user():
            with res.request() as req:
                yield req
                return env.now

        def supervisor():
            try:
                yield env.process(failing_user())
            except RuntimeError:
                pass
            result = yield env.process(second_user())
            return result

        p = env.process(supervisor())
        assert env.run(until=p) == 0.0

    def test_double_release_is_idempotent(self, env):
        res = Resource(env, capacity=1)

        def user():
            req = res.request()
            yield req
            res.release(req)
            res.release(req)

        env.process(user())
        env.run()
        assert res.count == 0

    def test_cancel_waiting_request(self, env):
        res = Resource(env, capacity=1)

        def holder():
            with res.request() as req:
                yield req
                yield env.timeout(10.0)

        def impatient():
            req = res.request()
            yield env.timeout(1.0)
            req.cancel()
            res.release(req)  # release of an unmet request == cancel

        env.process(holder())
        env.process(impatient())
        env.run()
        assert res.queue_length == 0

    def test_utilization_counts(self, env):
        res = Resource(env, capacity=4)
        reqs = [res.request() for _ in range(3)]
        env.run()
        assert res.count == 3
        for r in reqs:
            res.release(r)
        assert res.count == 0


class TestPort:
    def test_free_pair_starts_at_birth_and_fires_at_the_left_fold(self):
        env = Environment(initial_time=0.1)
        a, b = Port(), Port()
        done = serve(env, a, b, 0.2, 0.3)
        assert (a.holder, b.holder) == (done, done)
        assert done.triggered and not done.processed
        assert env.peek() == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)

    def test_release_hands_each_port_to_the_head_of_its_queue(self, env):
        a, b, c = Port(), Port(), Port()
        first = serve(env, a, b, 1.0)
        waiter = serve(env, a, c, 1.0)   # holds c, queued on a
        behind = serve(env, c, b, 1.0)   # queued on c and on b
        assert not waiter.triggered and list(a.queue) == [waiter]
        first.release()
        # a goes to the waiter, which now holds both and starts at once;
        # b goes to the claim behind it, which still lacks c.
        assert (a.holder, b.holder, c.holder) == (waiter, behind, waiter)
        assert waiter.triggered and not behind.triggered
        assert env.peek() == 1.0
        first.release()                  # idempotent
        waiter.release()
        assert behind.triggered and c.holder is behind and not a.queue
        assert a.holder is None

    def test_a_queued_claim_is_withdrawn(self, env):
        a, b = Port(), Port()
        first = serve(env, a, b, 1.0)
        queued = serve(env, a, b, 1.0)
        queued.release()
        assert not a.queue and not b.queue and a.holder is first
        first.release()
        assert a.holder is None and b.holder is None
        assert env.peek() == 1.0         # only the first service was started

    @pytest.mark.parametrize("delay, then", [(-1.0, 0.0), (0.0, -1e-9),
                                             (float("nan"), 0.0),
                                             (1.0, float("nan"))])
    def test_bad_hold_time_is_rejected_before_joining(self, env, delay, then):
        a, b = Port(), Port()
        with pytest.raises(ValueError):
            serve(env, a, b, delay, then)
        assert a.holder is None and b.holder is None
        assert env.peek() == float("inf")


def _claims(claimants, one_port):
    """Run ``claimants`` — ``(arrive, hold, interrupt_at or None)`` each —
    on one unit server; return the wake log: ``(claimant, start, end)`` for
    a finished claim, ``(claimant, where, instant)`` for an interrupted one.

    ``one_port`` claims a :class:`Port` with ``serve``; otherwise a unit
    :class:`Resource` is requested and held with a timeout, the reference.
    """
    env = Environment()
    port, unit = Port(), Resource(env, capacity=1)
    log = []

    def claimant(i, arrive, hold):
        try:
            yield env.timeout(arrive)
        except InterruptError:
            log.append((i, "before arriving", env.now))
            return
        if one_port:
            claim = serve(env, port, None, hold)
            try:
                yield claim
                log.append((i, claim.start, env.now))
            except InterruptError:
                where = "queued" if claim.start is None else "holding"
                log.append((i, where, env.now))
            finally:
                claim.release()
            return
        request = unit.request()
        try:
            yield request
            start = env.now
            yield env.timeout(hold)
            log.append((i, start, env.now))
        except InterruptError:
            where = "holding" if request in unit.users else "queued"
            log.append((i, where, env.now))
        finally:
            unit.release(request)

    def interrupter(proc, at):
        yield env.timeout(at)
        if proc.is_alive:
            proc.interrupt("stop")

    for i, (arrive, hold, interrupt_at) in enumerate(claimants):
        proc = env.process(claimant(i, arrive, hold))
        if interrupt_at is not None:
            env.process(interrupter(proc, interrupt_at))
    env.run()
    assert port.holder is None and not port.queue
    assert unit.count == 0 and unit.queue_length == 0
    return log


class TestOnePortAgainstAUnitResource:
    """A one-port ``serve`` is a unit ``Resource`` grant followed by a
    timeout, in one event: every claimant gets the same ``(start, end)``,
    in the same wake order, interrupted while queued or while holding."""

    @given(st.lists(st.booleans(), min_size=1, max_size=6),
           st.permutations(range(18)))
    @settings(max_examples=300, deadline=None)
    def test_same_windows_and_wake_order_with_interrupts(self, interrupted,
                                                         exponents):
        # Distinct powers of two: every sum of a subset is exact and unique,
        # so two instants coincide only when one event causes the other.
        times = [2.0 ** (e - 9) for e in exponents]
        claimants = [(times[3 * i], times[3 * i + 1],
                      times[3 * i + 2] if hit else None)
                     for i, hit in enumerate(interrupted)]
        assert _claims(claimants, True) == _claims(claimants, False)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)),
                    min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_same_windows_with_ties(self, claims):
        claimants = [(float(a), float(h), None) for a, h in claims]
        assert _claims(claimants, True) == _claims(claimants, False)

    def test_interrupt_while_queued_and_while_holding(self):
        # 0 holds [0, 4); 1 is interrupted queued at 1; 2, interrupted while
        # holding at 5, hands the port to 3 at that instant.
        claimants = [(0.0, 4.0, None), (0.5, 1.0, 1.0), (0.75, 2.0, 5.0),
                     (0.875, 1.0, None)]
        log = _claims(claimants, True)
        assert log == [(1, "queued", 1.0), (0, 0.0, 4.0),
                       (2, "holding", 5.0), (3, 5.0, 6.0)]
        assert log == _claims(claimants, False)


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        results = []

        def producer():
            yield store.put("item")

        def consumer():
            item = yield store.get()
            results.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert results == ["item"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        results = []

        def consumer():
            item = yield store.get()
            results.append((item, env.now))

        def late_producer():
            yield env.timeout(3.0)
            yield store.put("late")

        env.process(consumer())
        env.process(late_producer())
        env.run()
        assert results == [("late", 3.0)]

    def test_fifo_order(self, env):
        store = Store(env)
        out = []

        def producer():
            for i in range(3):
                yield store.put(i)

        def consumer():
            for _ in range(3):
                item = yield store.get()
                out.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert out == [0, 1, 2]

    def test_bounded_capacity_blocks_put(self, env):
        store = Store(env, capacity=1)
        log = []

        def producer():
            yield store.put("a")
            log.append(("put-a", env.now))
            yield store.put("b")
            log.append(("put-b", env.now))

        def slow_consumer():
            yield env.timeout(5.0)
            item = yield store.get()
            log.append((f"got-{item}", env.now))

        env.process(producer())
        env.process(slow_consumer())
        env.run()
        assert ("put-a", 0.0) in log
        assert ("put-b", 5.0) in log

    def test_invalid_capacity(self, env):
        with pytest.raises(ResourceError):
            Store(env, capacity=0)

    def test_len(self, env):
        store = Store(env)
        store.put(1)
        store.put(2)
        env.run()
        assert len(store) == 2

    def test_get_then_wakes_at_the_hand_off_plus_then(self):
        env = Environment(initial_time=0.1)
        store = Store(env)
        store.put("ready")
        ready = store.get(then=0.2)      # an item: handed over at birth
        assert not store.items and ready.triggered and not ready.processed
        waiting = store.get(then=0.2)    # none yet: waits for the put
        seen = []

        def putter():
            yield env.timeout(0.3)
            store.put("late")

        def getter(event):
            seen.append(((yield event), env.now))

        env.process(getter(ready))
        env.process(getter(waiting))
        env.process(putter())
        env.run()
        assert seen == [("ready", 0.1 + 0.2), ("late", (0.1 + 0.3) + 0.2)]

    @pytest.mark.parametrize("then", [-1e-9, float("nan")])
    def test_get_rejects_a_negative_or_nan_then(self, env, then):
        store = Store(env)
        store.put("x")
        with pytest.raises(ValueError):
            store.get(then=then)
        assert list(store.items) == ["x"] and not store._getters
