"""Cluster network model.

The testbed in the paper is a commodity GbE/10GbE cluster; what matters to the
evaluation is that shuffles and remote HDFS reads cost time proportional to
bytes moved and queue behind other traffic on the same NIC.  We model each
node with one full-duplex NIC: an egress port and an ingress port, each a
:class:`~repro.common.resources.Port` (network links modeled as unit
servers) drained at the configured bandwidth.  A transfer holds the
sender's egress port and the receiver's ingress port for a fixed round-trip
latency plus ``bytes / bandwidth``.  Loopback transfers are free except for
a small in-memory copy cost.

A port's hold time is known when the transfer asks for it, so a port hands
itself on: the transfer joins both queues at the same instant, egress
first, and its service — one completion event — starts the moment it holds
both, at birth when both are free, otherwise in the step of the transfer
that lets go of the last one it lacked.  A cross-node transfer costs
exactly one event, queued or not.  The ordering statement that goes with
it: the waiter's service starts in the releaser's step, not one heap hop
later at the same timestamp as a grant woken through the heap would start
it.  An interrupt — while queued, at the instant the ports come to it, or
in service — lets go of both ports at the interrupt instant, and whoever is
next starts then.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.resources import Port, serve
from repro.common.simclock import Environment, Event


@dataclass(frozen=True)
class NetworkConfig:
    """Network calibration constants.

    bandwidth_bps
        Per-NIC bandwidth in bytes/second (full duplex, per direction).
    latency_s
        Fixed per-transfer setup latency (TCP round trip, framing).
    loopback_bps
        Effective memcpy bandwidth for same-node "transfers".
    """

    bandwidth_bps: float = 1.0e9  # ~10 GbE effective
    latency_s: float = 150e-6
    loopback_bps: float = 8.0e9


class Network:
    """Point-to-point transfers among a fixed set of named nodes."""

    def __init__(self, env: Environment, node_names: list[str],
                 config: NetworkConfig | None = None):
        if len(set(node_names)) != len(node_names):
            raise ConfigError(f"duplicate node names: {node_names}")
        self.env = env
        self.config = config or NetworkConfig()
        self._egress: Dict[str, Port] = {n: Port() for n in node_names}
        self._ingress: Dict[str, Port] = {n: Port() for n in node_names}

    @property
    def nodes(self) -> list[str]:
        return list(self._egress)

    def add_node(self, name: str) -> None:
        """Register a node added after construction (e.g. elastic workers)."""
        if name in self._egress:
            raise ConfigError(f"node {name!r} already registered")
        self._egress[name] = Port()
        self._ingress[name] = Port()

    def _check(self, src: str, dst: str, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if src not in self._egress:
            raise ConfigError(f"unknown source node {src!r}")
        if dst not in self._ingress:
            raise ConfigError(f"unknown destination node {dst!r}")

    def loopback_s(self, node: str, nbytes: int) -> float:
        """Seconds a same-node "transfer" of ``nbytes`` costs: a memcpy that
        touches no NIC and waits for nothing, so a caller may fold it into a
        fused charge instead of running :meth:`transfer` for it."""
        self._check(node, node, nbytes)
        return nbytes / self.config.loopback_bps

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
        wire_s = nbytes / self.config.bandwidth_bps
        # Egress then ingress, at one instant — every port queue holds the
        # same transfers in the same order whatever is free.  Nothing
        # observes the instant between latency and wire time unless
        # ``progress`` slices the wire time.
        done = serve(self.env, out_port, in_port, self.config.latency_s,
                     wire_s if progress is None else 0.0)
        try:
            # The wait is inside the try: an interrupt while queued must hand
            # on a port already held and withdraw the other claim.
            yield done
            if progress is not None:
                yield from self._charge(wire_s, nbytes, progress)
            out_port.bytes_moved += nbytes
            in_port.bytes_moved += nbytes
        finally:
            done.release()

    def _charge(self, seconds: float, nbytes: int,
                progress: Optional[
                    Tuple[Sequence[float], Callable[[float], None]]]
                ) -> Generator[Event, None, None]:
        """Charge ``seconds`` of linear transfer time, optionally sliced at
        byte ``marks`` with ``callback(cum)`` fired at each."""
        if progress is None or nbytes <= 0:
            yield self.env.timeout(seconds)
            if progress is None:
                return
            # An empty transfer still reports every mark, clamped to 0.0 by
            # the loop below, as a disk read of an empty block does.
        marks, callback = progress
        done = 0.0
        for cum in marks:
            cum = min(float(cum), float(nbytes))
            if cum > done:
                yield self.env.timeout(seconds * (cum - done) / nbytes)
                done = cum
            callback(done)
        if done < nbytes:
            yield self.env.timeout(seconds * (nbytes - done) / nbytes)

    def bytes_sent(self, node: str) -> int:
        """Total bytes this node has put on the wire (excludes loopback)."""
        return self._egress[node].bytes_moved

    def bytes_received(self, node: str) -> int:
        """Total bytes this node has taken off the wire (excludes loopback)."""
        return self._ingress[node].bytes_moved
