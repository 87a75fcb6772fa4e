"""CUDA streams.

"Stream is a sequence of commands that executes on the GPU in order.
Different Streams may execute their commands out of order with each other or
concurrently." (paper §4.1.2).  We get exactly those semantics from a
unit-capacity resource per stream: operations acquire the stream lock in
enqueue order (the wait queue is FIFO), hold it for their duration, and
different streams' operations interleave freely on the device's engines.
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional

from repro.common.resources import Resource
from repro.common.simclock import Environment, Event
from repro.gpu.device import GPUDevice

_stream_ids = itertools.count(1)  # stream 0 is the default stream


class CUDAStream:
    """An in-order command queue on one device."""

    def __init__(self, env: Environment, device: GPUDevice):
        self.env = env
        self.device = device
        self.stream_id = next(_stream_ids)
        self._order = Resource(env, capacity=1)
        self._last_op: Optional[Event] = None
        self.ops_enqueued = 0

    def enqueue(self, operation, name: str | None = None) -> Event:
        """Enqueue ``operation`` (a generator function of no args).

        Returns a process-event that fires with the operation's return value
        when it completes.  Operations on the same stream run in enqueue
        order; operations on different streams are independent.
        """
        self.ops_enqueued += 1

        def runner() -> Generator[Event, None, object]:
            with self._order.request() as turn:
                yield turn
                result = yield from operation()
            return result

        proc = self.env.process(
            runner(), name=name or f"stream{self.stream_id}-op")
        self._last_op = proc
        return proc

    def synchronize(self) -> Event:
        """Event firing once everything enqueued so far has completed."""
        if self._last_op is None or self._last_op.processed:
            done = self.env.event()
            done.succeed(self.env.now)
            return done
        return self._last_op
