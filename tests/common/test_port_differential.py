"""NIC ports that hand themselves on, against the ports they replaced.

A :class:`~repro.common.resources.Port` states its holder's hold time when
the transfer asks, so ``Network.transfer`` costs one event: the completion
of its service, pushed by whichever step gives it the last port it lacked.
The oracle is the transfer it replaced — two unit ``Resource`` requests
issued together, egress first, awaited in turn, then a fused latency + wire
timeout (``tests/common/retired.py::TurnNetwork``, verbatim).

Generated: 3–5 nodes, transfers on a grid of one time unit (sizes, starts
and latency are small multiples of it, so many transfers start, queue and
end at exactly the same instant) or on the calibrated network (where sums
round), some with ``progress`` marks, and
interrupts that land before a transfer starts, while it is queued on
egress or on ingress, at the instant its second port comes to it, in
service, or after it ended.  Every transfer must end — or be interrupted —
at the oracle's instant, bit for bit; every progress callback must fire at
the oracle's instant with the oracle's offset; every node must count the
same bytes sent and received; and every port must end free.

*Ordering statement.*  What can differ is which of two transfers ending at
the same instant resumes first.  Tied completions fire in the order their
services started, and a waiter's service now starts in the step of the
release that hands it its last port; the oracle started it one heap hop
later, in its grant's step, behind whatever that instant had already
scheduled.  So a waiter and a transfer issued later in that same instant
that end together trade places: the waiter resumes first
(:class:`TestTiedCompletions`).
"""

import random

from hypothesis import given, strategies as st

from repro.common import Environment
from repro.common.errors import InterruptError
from repro.common.network import Network, NetworkConfig
from repro.common.resources import Request
from tests.common.retired import TurnNetwork
from tests.flink.conftest import assert_ports_free, depth

#: One time unit.  On the ``grid`` network latency is one unit and a
#: "unit" transfer moves one unit of wire time, so every instant of a case
#: is a small multiple of it; on the ``calibrated`` one (the default
#: constants) sums round, so a start read as ``now + (latency + wire)``
#: instead of the fused timeout's left fold shows in the last bit.
UNIT = 2.0 ** -13
UNIT_BYTES = 2 ** 17
CONFIGS = {"grid": NetworkConfig(bandwidth_bps=2.0 ** 30, latency_s=UNIT,
                                 loopback_bps=2.0 ** 33),
           "calibrated": NetworkConfig()}

POSITIONS = ("queued on egress", "queued on ingress", "grant instant",
             "in service")


def draw_case(rng):
    """``(nodes, network, transfers)``: each transfer ``(src, dst, nbytes,
    start, marks or None, kill instant or None)``."""
    n_nodes = rng.randint(3, 5)
    config = rng.choice(sorted(CONFIGS))
    transfers = []
    for _ in range(rng.randint(1, 8)):
        src, dst = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if src == dst and rng.random() < 0.7:
            dst = (src + 1) % n_nodes  # mostly cross-node
        nbytes = rng.choice([0, 1, 2, 3]) * UNIT_BYTES
        marks = None
        if rng.random() < 0.3:
            marks = sorted(rng.choice([0, UNIT_BYTES // 2, UNIT_BYTES,
                                       2 * UNIT_BYTES, 5 * UNIT_BYTES])
                           for _ in range(rng.randint(1, 3)))
        kill = rng.randint(0, 8) * UNIT if rng.random() < 0.4 else None
        transfers.append((src, dst, nbytes, rng.randint(0, 4) * UNIT,
                          marks, kill))
    return n_nodes, config, transfers


def position(net, victim, src, dst, started):
    """Where an oracle transfer stands when its interrupt is thrown."""
    target = victim._target
    if not started or not victim.is_alive or src == dst:
        return None
    if isinstance(target, Request):
        if target.triggered:
            return "grant instant"
        if target.resource is net._egress[src].lock:
            return "queued on egress"
        return "queued on ingress"
    return "in service"


def run_case(network_cls, case):
    """Run ``case``; return what must not depend on the port's design, the
    order in which the transfer processes resumed at their end, and the
    oracle's interrupt positions (``None`` entries off the NIC)."""
    n_nodes, config, transfers = case
    env = Environment()
    nodes = [f"n{i}" for i in range(n_nodes)]
    net = network_cls(env, nodes, CONFIGS[config])
    ends, progress, resumed, started, positions = {}, {}, [], set(), []

    def transfer(tid, src, dst, nbytes, start, marks):
        try:
            if start:
                yield env.timeout(start)
            started.add(tid)
            report = None
            if marks is not None:
                progress[tid] = []
                report = (marks, lambda cum: progress[tid].append(
                    (env.now, cum)))
            yield from net.transfer(nodes[src], nodes[dst], nbytes, report)
            ends[tid] = ("done", env.now)
        except InterruptError:
            ends[tid] = ("interrupted", env.now)
        resumed.append(tid)

    def killer(tid, victim, at):
        yield env.timeout(at)
        if victim.is_alive:
            src, dst = (nodes[i] for i in transfers[tid][:2])
            if network_cls is TurnNetwork:
                positions.append(position(net, victim, src, dst,
                                          tid in started))
            victim.interrupt("killed")

    # A transfer starting at 0 is issued in its process's first step, ahead
    # of every killer: a kill can land just after a release at its instant.
    victims = [env.process(transfer(tid, src, dst, nbytes, start, marks))
               for tid, (src, dst, nbytes, start, marks, _) in
               enumerate(transfers)]
    for tid, (*_, kill) in enumerate(transfers):
        if kill is not None:
            env.process(killer(tid, victims[tid], kill))
    env.run()
    assert_ports_free(net)
    out = {"ends": ends, "progress": progress,
           "nic": [(net.bytes_sent(n), net.bytes_received(n))
                   for n in nodes]}
    return out, resumed, positions


class TestPortEqualsTheTransferItReplaced:

    @given(case=st.builds(draw_case, st.randoms(use_true_random=False)))
    @depth(tier1=200, full=5000)
    def test_generated_transfers_ties_marks_and_interrupts(self, case):
        new, _, _ = run_case(Network, case)
        old, _, _ = run_case(TurnNetwork, case)
        assert new == old

    def test_every_interrupt_position_is_reached(self):
        """The sweep the generator draws from reaches all four positions,
        and ties: some transfers resume in another order than the oracle's
        (the ordering statement), never at another instant."""
        seen, traded = set(), 0
        for seed in range(300):
            case = draw_case(random.Random(seed))
            new, new_order, _ = run_case(Network, case)
            old, old_order, positions = run_case(TurnNetwork, case)
            assert new == old, seed
            seen.update(positions)
            traded += new_order != old_order
        assert seen - {None} == set(POSITIONS)
        assert traded


class TestTiedCompletions:
    """The ordering statement, on the smallest case that shows it."""

    def test_a_waiter_started_by_a_release_resumes_ahead_of_a_later_issue(
            self):
        # A and W leave node 0 at once (W queues behind A on its egress
        # port); X is issued at the instant A ends, on ports of its own.
        # W and X then move the same bytes from the same instant.
        case = (5, "grid", [(0, 1, UNIT_BYTES, 0.0, None, None),
                            (0, 2, UNIT_BYTES, 0.0, None, None),
                            (3, 4, UNIT_BYTES, 2 * UNIT, None, None)])
        new, new_order, _ = run_case(Network, case)
        old, old_order, _ = run_case(TurnNetwork, case)
        assert new == old
        assert new["ends"] == {0: ("done", 2 * UNIT), 1: ("done", 4 * UNIT),
                               2: ("done", 4 * UNIT)}
        # The oracle granted W's port one heap hop after A let go, behind
        # X's start; the port now starts W in A's own step.
        assert (new_order, old_order) == ([0, 1, 2], [0, 2, 1])
