"""Shared-resource primitives for the simulation kernel.

* :class:`Resource` — ``capacity`` interchangeable servers whose holders do
  not say how long they stay (CPU slots, disk spindles, a CUDA stream's
  in-order lock).
* :class:`Port` — a FIFO unit server whose holder states its hold time when
  it asks (one direction of a NIC, a GPU's compute engine or copy engine).
* :class:`Store` — an unbounded-or-bounded FIFO buffer of Python objects
  (work queues, mailboxes).

``Resource`` and ``Store`` follow the SimPy convention: ``request()`` /
``get()`` / ``put()`` return events to ``yield`` on, and requests act as
context managers that release on exit.  A port is claimed alone or in a
pair by :func:`serve`, which returns the service's completion; the claimant
yields it and lets go with :meth:`Service.release`.

Zero-wait rule (see :mod:`repro.common.simclock`): an event satisfiable when
created is processed at birth; the creating process runs on within the same
instant; waiters are still woken through the heap in FIFO order.  Here that
means a :class:`Request` on a resource with a free slot, a ``put`` into a
store with room and no earlier putter, and a ``get`` from a store holding an
item with no earlier getter come back already processed and cost no heap
entry.  A request that had to queue, and a putter or getter that had to
block, is granted later — one heap entry, delivered in request order.

A getter may say what it does next: ``get(then=…)`` is a ``get()`` followed
by ``timeout(then)`` in one event.  Its wake is pushed at ``hand-off +
then`` — at birth when an item is there, otherwise in the putter's step —
which is the instant the pair reaches (the D2H stage pays its JNI redirect
this way).  ``then = 0`` is the plain hand-off above.

A port has no grant to deliver: its holder's hold time is known when it
asks, so the completion *is* the service.  :func:`serve` joins its one or
two ports at one instant, first then second; a claim that holds every port
at once pushes its completion at ``(now + delay) + then`` — the left fold
of a fused timeout — and one that queued is started by
:meth:`Service.release` of the claim ahead of it, in the releaser's step,
at the releaser's instant; ``Service.start`` records that instant.  A
cross-node transfer, a kernel launch or a DMA copy therefore costs exactly
one event, queued or not.  The ordering statement that goes with both
hand-offs: the waiter's event is pushed in the releaser's (or putter's)
step, not one heap hop later at the same timestamp as a grant or wake
through the heap would push it.

An event is born in the function that hands it out: ``Resource.request``,
``serve``, ``Store.put`` and ``Store.get`` allocate it, write its slots
(processed or pending) and return it in one frame, and ``Resource.release``
/ ``Service.release`` push the next waiter's grant or completion on the
heap themselves.  :class:`Request`, :class:`Service`, :class:`StorePut` and
:class:`StoreGet` therefore define no ``__init__``; this module and
``simclock.py`` are the only writers of the event slots.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque

from repro.common.errors import ResourceError, SimulationError
from repro.common.simclock import NORMAL, Environment, Event, _new

_PENDING = Event._PENDING


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot (built by
    :meth:`Resource.request`)."""

    __slots__ = ("resource", "_order")

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request from the wait queue."""
        if not self.triggered:
            try:
                self.resource._queue.remove(self)
            except ValueError:
                pass


class Resource:
    """``capacity`` identical servers with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ResourceError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self._queue: Deque[Request] = deque()
        self._order = 0

    # -- public API -----------------------------------------------------------
    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted."""
        request = _new(Request)
        request.env = self.env
        request._ok = True
        request._defused = False
        request.resource = self
        self._order = request._order = self._order + 1
        users = self.users
        if len(users) < self.capacity:
            # Free slot: granted at birth, no heap entry.
            users.append(request)
            request.callbacks = None
            request._value = request
        else:
            request.callbacks = []
            request._value = _PENDING
            self._queue.append(request)
        return request

    def release(self, request: Request) -> None:
        """Return a granted slot (idempotent for convenience in finally blocks)."""
        users = self.users
        try:
            users.remove(request)
        except ValueError:
            request.cancel()
            return
        queue = self._queue
        if queue and len(users) < self.capacity:
            # The oldest waiter takes the slot: one heap entry, at now.
            granted = queue.popleft()
            users.append(granted)
            if granted._value is not _PENDING:
                raise SimulationError(f"{granted!r} already triggered")
            granted._value = granted
            env = self.env
            env._seq = seq = env._seq + 1
            heappush(env._heap, (env._now, NORMAL, seq, granted))

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)


class Port:
    """A FIFO unit server whose holder states its hold time when it asks.

    ``holder`` is the :class:`Service` being served (``None`` when free),
    ``queue`` the claims waiting in arrival order, ``bytes_moved`` what its
    owner has put through it.
    """

    __slots__ = ("holder", "queue", "bytes_moved")

    def __init__(self) -> None:
        self.holder: Service | None = None
        self.queue: Deque[Service] = deque()
        self.bytes_moved = 0


class Service(Event):
    """The completion of one service on one or two :class:`Port` s (built
    by :func:`serve`); pending until it holds every port, then scheduled.

    ``start`` is the instant it came to hold them (``None`` while queued).
    """

    __slots__ = ("ports", "start", "_waits", "_delay", "_then")

    def release(self) -> None:
        """Let go of every port (idempotent, for ``finally`` blocks).

        A held port passes to the head of its queue; a claim that now holds
        all it asked for starts its service here, at this instant.  A claim
        of ours still queued is withdrawn.  A completion already scheduled
        fires later with no waiter, like any orphaned timeout.
        """
        for port in self.ports:
            if port.holder is not self:
                try:
                    port.queue.remove(self)
                except ValueError:
                    pass
                continue
            queue = port.queue
            if not queue:
                port.holder = None
                continue
            port.holder = successor = queue.popleft()
            successor._waits = waits = successor._waits - 1
            if not waits:
                successor._value = None
                env = successor.env
                successor.start = now = env._now
                env._seq = seq = env._seq + 1
                heappush(env._heap, ((now + successor._delay)
                                     + successor._then, NORMAL, seq,
                                     successor))


def serve(env: Environment, first: Port, second: Port | None, delay: float,
          then: float = 0.0) -> Service:
    """Claim ``first`` then ``second`` (when not ``None``) at this instant
    for ``delay`` plus ``then`` seconds; the returned event fires at
    ``(start + delay) + then``, where ``start`` is the instant the claim
    holds every port it asked for."""
    # ``not (d >= 0)`` rather than ``d < 0``: NaN fails it as well.
    if not (delay >= 0 and then >= 0):
        raise ValueError(f"negative or NaN hold time: {delay!r}, {then!r}")
    service = _new(Service)
    service.env = env
    service.callbacks = []
    service._ok = True
    service._defused = False
    service.ports = ports = (first,) if second is None else (first, second)
    service._delay = delay
    service._then = then
    waits = 0
    for port in ports:
        if port.holder is None:
            port.holder = service
        else:
            port.queue.append(service)
            waits += 1
    service._waits = waits
    if waits:
        service._value = _PENDING
        service.start = None
    else:
        # Every port free: the service starts now, one heap entry at its end.
        service._value = None
        service.start = now = env._now
        env._seq = seq = env._seq + 1
        heappush(env._heap, ((now + delay) + then, NORMAL, seq, service))
    return service


class StorePut(Event):
    """Pending insertion into a :class:`Store` (built by :meth:`Store.put`)."""

    __slots__ = ("item",)


class StoreGet(Event):
    """Pending removal from a :class:`Store` (built by :meth:`Store.get`);
    ``_then`` is the getter's charge after the hand-off."""

    __slots__ = ("_then",)


class Store:
    """FIFO object buffer with optional capacity bound."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise ResourceError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; the event fires once there is room."""
        event = _new(StorePut)
        event.env = self.env
        event._ok = True
        event._defused = False
        event.item = item
        if not self._putters and len(self.items) < self.capacity:
            # Room and nobody ahead: stored at birth, no heap entry.
            self.items.append(item)
            event.callbacks = None
            event._value = None
            if self._getters:
                self._dispatch()
        else:
            event.callbacks = []
            event._value = _PENDING
            self._putters.append(event)
        return event

    def get(self, then: float = 0.0) -> StoreGet:
        """Remove the oldest item; the event fires with the item as value
        ``then`` seconds after the hand-off — at ``hand-off + then``, the
        instant a ``get()`` followed by ``timeout(then)`` reaches, in one
        event."""
        if not then >= 0:  # NaN fails it as well
            raise ValueError(f"negative or NaN charge: {then!r}")
        event = _new(StoreGet)
        event.env = env = self.env
        event._ok = True
        event._defused = False
        event._then = then
        if self.items and not self._getters:
            # An item and nobody ahead: handed over at birth.
            event._value = self.items.popleft()
            if self._putters:
                self._dispatch()
            if then:
                # The charge still has to pass: one heap entry at its end.
                event.callbacks = []
                env._seq = seq = env._seq + 1
                heappush(env._heap, (env._now + then, NORMAL, seq, event))
            else:
                event.callbacks = None
        else:
            event.callbacks = []
            event._value = _PENDING
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self.items)

    # -- internals ----------------------------------------------------------------
    def _dispatch(self) -> None:
        """Wake blocked putters and getters (through the heap, in order)."""
        progress = True
        while progress:
            progress = False
            # Move waiting putters into the buffer while there is room.
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Serve waiting getters from the buffer: each wakes ``then``
            # after the hand-off, pushed here in the putter's step.
            while self._getters and self.items:
                get = self._getters.popleft()
                get._value = self.items.popleft()
                env = self.env
                env._seq = seq = env._seq + 1
                heappush(env._heap, (env._now + get._then, NORMAL, seq, get))
                progress = True
