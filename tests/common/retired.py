"""The NIC port as a unit ``Resource``, kept as a test oracle.

Until a port handed itself on (``repro.common.resources.Port``), each
direction of a NIC was a ``Resource(capacity=1)`` and
``Network.transfer`` issued its two port requests together, egress first,
and awaited them in turn: a queued request was granted through the heap and
the transfer then charged latency and wire time as one fused timeout.
:class:`TurnNetwork` is that transfer, verbatim; ``test_port_differential.py``
holds the port to it, and ``tests/flink/retired.py::AllOfNetwork`` (the
``all_of`` join before it) builds on its ports.  Nothing under ``src/`` may
import this module.
"""

from typing import Callable, Generator, Optional, Sequence, Tuple

from repro.common.network import Network
from repro.common.resources import Resource
from repro.common.simclock import Event


class ResourcePort:
    """One direction of a node's NIC, as a unit ``Resource``; ``holder`` and
    ``queue`` read it the way ``tests/flink/conftest.py::assert_ports_free``
    reads a :class:`~repro.common.resources.Port`."""

    def __init__(self, env):
        self.lock = Resource(env, capacity=1)
        self.bytes_moved = 0

    @property
    def holder(self):
        return self.lock.users[0] if self.lock.users else None

    @property
    def queue(self):
        return self.lock._queue


class TurnNetwork(Network):
    """A :class:`Network` over :class:`ResourcePort` s whose ``transfer``
    awaits its two port requests in turn."""

    def __init__(self, env, node_names, config=None):
        super().__init__(env, node_names, config)
        self._egress = {n: ResourcePort(env) for n in node_names}
        self._ingress = {n: ResourcePort(env) for n in node_names}

    def add_node(self, name: str) -> None:
        super().add_node(name)
        self._egress[name] = ResourcePort(self.env)
        self._ingress[name] = ResourcePort(self.env)

    def transfer(self, src: str, dst: str, nbytes: int,
                 progress: Optional[
                     Tuple[Sequence[float], Callable[[float], None]]
                 ] = None) -> Generator[Event, None, None]:
        """Simulation process: move ``nbytes`` from ``src`` to ``dst``.

        Charges wire time on both endpoints' ports; a loopback transfer is
        charged at memcpy speed without touching the NIC.

        ``progress``, when given, is ``(marks, callback)``: cumulative byte
        offsets at which ``callback(cum)`` fires as the wire time elapses.
        The wire charge is sliced per mark with an identical sum, so total
        network time is unchanged; the pipelined executor uses the callback
        to publish a remote read's byte prefix as it lands.
        """
        if src == dst:
            yield from self._charge(self.loopback_s(src, nbytes), nbytes,
                                    progress)
            return
        self._check(src, dst, nbytes)
        out_port = self._egress[src]
        in_port = self._ingress[dst]
        # Issued together, egress first, at one instant — every port queue
        # holds the same requests in the same order whatever is free — and
        # awaited in turn: a free port costs no event, a queued one exactly
        # its grant, and the process resumes inside the later grant's step.
        out_req = out_port.lock.request()
        in_req = in_port.lock.request()
        try:
            # The waits are inside the try: an interrupt while queued must
            # release a port already granted and withdraw the other request.
            yield out_req
            yield in_req
            wire_s = nbytes / self.config.bandwidth_bps
            if progress is None:
                # Nothing observes the instant between latency and wire time.
                yield self.env.timeout(self.config.latency_s, then=wire_s)
            else:
                yield self.env.timeout(self.config.latency_s)
                yield from self._charge(wire_s, nbytes, progress)
            out_port.bytes_moved += nbytes
            in_port.bytes_moved += nbytes
        finally:
            out_port.lock.release(out_req)
            in_port.lock.release(in_req)
