"""Tests for the cluster network model."""

from collections import Counter

import pytest

from repro.common import Environment
from repro.common.errors import ConfigError
from repro.common.network import Network, NetworkConfig
from repro.common.resources import Port, serve
from tests.common.test_zero_wait_events import counting_steps


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def net(env):
    return Network(env, ["a", "b", "c"],
                   NetworkConfig(bandwidth_bps=1e9, latency_s=1e-4,
                                 loopback_bps=8e9))


def run_transfer(env, net, src, dst, nbytes):
    p = env.process(net.transfer(src, dst, nbytes))
    env.run(until=p)
    return env.now


class TestNetwork:
    def test_transfer_time_is_latency_plus_wire(self, env, net):
        t = run_transfer(env, net, "a", "b", 1_000_000_000)
        assert t == pytest.approx(1.0 + 1e-4)

    def test_loopback_is_memcpy_speed(self, env, net):
        t = run_transfer(env, net, "a", "a", 8_000_000_000)
        assert t == pytest.approx(1.0)

    def test_unknown_node_rejected(self, env, net):
        with pytest.raises(ConfigError):
            env.run(until=env.process(net.transfer("a", "zz", 10)))

    def test_negative_bytes_rejected(self, env, net):
        with pytest.raises(ValueError):
            env.run(until=env.process(net.transfer("a", "b", -1)))

    def test_duplicate_node_names_rejected(self, env):
        with pytest.raises(ConfigError):
            Network(env, ["x", "x"])

    def test_same_egress_serializes(self, env, net):
        done = []

        def send(dst):
            yield from net.transfer("a", dst, 1_000_000_000)
            done.append((dst, env.now))

        env.process(send("b"))
        env.process(send("c"))
        env.run()
        # Both leave node a's single egress port: second waits for first.
        times = sorted(t for _, t in done)
        assert times[0] == pytest.approx(1.0001)
        assert times[1] == pytest.approx(2.0002)

    def test_disjoint_pairs_run_in_parallel(self, env, net):
        done = []

        def send(src, dst):
            yield from net.transfer(src, dst, 1_000_000_000)
            done.append(env.now)

        env.process(send("a", "b"))
        env.process(send("c", "a"))  # different egress, different ingress
        env.run()
        assert done == pytest.approx([1.0001, 1.0001])

    def test_byte_accounting(self, env, net):
        run_transfer(env, net, "a", "b", 12345)
        assert net.bytes_sent("a") == 12345
        assert net.bytes_received("b") == 12345
        assert net.bytes_sent("b") == 0

    def test_loopback_not_counted_on_nic(self, env, net):
        run_transfer(env, net, "a", "a", 999)
        assert net.bytes_sent("a") == 0

    def test_loopback_cost_is_a_validated_pure_function(self, env, net):
        assert net.loopback_s("a", 8_000_000_000) == 1.0
        assert env.peek() == float("inf")  # nothing scheduled, nothing held
        with pytest.raises(ValueError):
            net.loopback_s("a", -1)
        with pytest.raises(ConfigError):
            net.loopback_s("zz", 10)

    def test_a_transfer_costs_one_event_whether_it_queued_or_not(self, env,
                                                                 net):
        """A port hands itself on: no grant through the heap, no composite
        event — the completion of the transfer's service is its one event."""
        def steps(*routes):
            for src, dst in routes:
                env.process(net.transfer(src, dst, 1000))
            with counting_steps() as fired:
                env.run()
            return fired

        alone = Counter(Initialize=1, Service=1, Process=1)
        assert steps(("a", "b")) == alone
        # The second queues on b's ingress port, already holding its egress
        # port while it waits: it costs what the first costs.
        assert steps(("a", "b"), ("c", "b")) == alone + alone

    def test_add_node(self, env, net):
        net.add_node("d")
        t = run_transfer(env, net, "a", "d", 1_000_000_000)
        assert t == pytest.approx(1.0001)
        with pytest.raises(ConfigError):
            net.add_node("d")

    @pytest.mark.parametrize("position",
                             ["egress", "ingress", "instant", "in-service"])
    def test_interrupt_while_waiting_for_ports_releases_them(self, env, net,
                                                             position):
        """An interrupted transfer lets go of both ports at the interrupt
        instant: it hands on the port it holds and withdraws the claim still
        queued — queued on egress holding ingress, holding egress and queued
        on ingress, at the very instant the second port came to it (its
        service started in the releaser's step), and in service.  Whatever
        queued behind it and now holds both ports starts at that instant."""
        from repro.common.errors import InterruptError
        finished = []
        out_a, in_b = net._egress["a"], net._ingress["b"]
        held = {"egress": out_a, "ingress": in_b, "instant": in_b}.get(position)
        # The holder lets go at the instant of the interrupt, just ahead of
        # it, or long after it.
        hold_s = 0.1 if position == "instant" else 1.0

        def holder():
            # One port held alone: its partner is a port nobody else uses.
            claim = serve(env, held, Port(), hold_s)
            try:
                yield claim
            finally:
                claim.release()

        def doomed():
            try:
                yield from net.transfer(
                    "a", "b", 10**9 if position == "in-service" else 1000)
            except InterruptError:
                finished.append(("doomed-interrupted", env.now))

        def killer(victim, follower):
            yield env.timeout(0.1)
            claim, behind = victim._target, follower._target
            assert (out_a.holder is claim, list(out_a.queue),
                    in_b.holder is claim, list(in_b.queue)) == {
                "egress": (False, [claim, behind], True, [behind]),
                "ingress": (True, [behind], False, [claim, behind]),
                "instant": (True, [behind], True, [behind]),
                "in-service": (True, [behind], True, [behind]),
            }[position]
            assert claim.triggered == (position in ("instant", "in-service"))
            assert not claim.processed
            victim.interrupt("worker died")

        def successor():
            yield env.timeout(0.05)
            yield from net.transfer("a", "b", 1000)
            finished.append(("successor", env.now))

        def later():
            yield env.timeout(1.5)
            yield from net.transfer("a", "b", 1000)
            finished.append(("later", env.now))

        if held is not None:
            env.process(holder())
        victim = env.process(doomed())
        follower = env.process(successor())
        env.process(killer(victim, follower))
        env.process(later())
        env.run()
        # The successor starts when it holds both ports: at the interrupt
        # instant, or when the holder lets go of the one it lacks.
        start = 1.0 if position in ("egress", "ingress") else 0.1
        assert finished == [("doomed-interrupted", 0.1),
                            ("successor", (start + 1e-4) + 1e-6),
                            ("later", (1.5 + 1e-4) + 1e-6)]
        for port in (*net._egress.values(), *net._ingress.values()):
            assert port.holder is None and not port.queue
