"""Discrete-event simulation kernel.

A compact process-interaction engine in the style of SimPy: model logic is
written as Python generators that ``yield`` :class:`Event` objects and are
resumed when those events fire.  The :class:`Environment` owns the virtual
clock and the event heap.

Design notes
------------
* Events fire in ``(time, priority, sequence)`` order, so same-time events are
  deterministic: FIFO within a priority band.
* A :class:`Process` is itself an event that succeeds with the generator's
  return value (or fails with its exception), so processes can wait on each
  other, and :class:`AllOf` joins them.
* Failed events whose failure is never observed raise at ``run()`` time rather
  than being silently dropped — unhandled model errors must not vanish.
* The engine is single-threaded and allocation-light; benchmark jobs schedule
  hundreds of thousands of events, so the hot paths avoid closures where a
  bound method suffices.

Zero-wait rule
--------------
An event that can be satisfied at the instant it is created is *processed at
birth*: it comes back with ``callbacks is None`` and its value set, never
touches the heap, and the process that yields it runs on within the same
instant (``Process._resume`` continues the generator in the same call).  The
kernel applies this to nothing of its own; :mod:`repro.common.resources` uses
it for uncontended grants and hand-offs.  Whoever *waits* — a queued request,
a blocked putter or getter — is still woken through the heap, in FIFO order.
The consequence is an ordering statement: at one timestamp, a process whose
request was granted at birth runs ahead of peers whose events were already
scheduled for that timestamp.  Two waits carry the charge that follows them
in the hand-off itself: a getter that asked ``Store.get(then=…)`` has its
wake pushed in the putter's step at ``now + then``, and a queued claim on a
``Port`` (``resources.serve``) has its completion pushed in the releaser's
step at ``(now + delay) + then`` — the instants a wake followed by a
timeout reaches, in one event instead of two.  Their ordering statement:
such an event takes its place in the heap in the putter's or the
releaser's step, ahead of same-instant events scheduled after that step,
where the wake-then-timeout pair would have taken it one heap hop later.
The processed representation
(``callbacks = None`` with the value in place) is private to this module and
``resources.py``, which writes it where the event is built —
``Resource.request``, ``Store.put``, ``Store.get``; ``scripts/lint.py`` lints
for that.

One frame per hop
-----------------
An event on a hot path is built, marked and — when it must wait — pushed on
the heap inside the one function that hands it out: ``Environment.timeout``,
``Event.succeed`` and the resource entry points write the slots and call
``heappush`` themselves, and the event classes they build define no
``__init__``.  ``Environment._schedule`` serves the cold paths only (``fail``,
process start, interrupts).  ``Environment.step`` is the one function entered per event
fired, and a :class:`Process` wakes through one bound ``_resume`` kept for
its lifetime rather than a fresh bound method per sleep.

Fused charges
-------------
``env.timeout(a, then=b)`` is one event for back-to-back charges by the same
process; ``then`` is one further charge or a tuple/list of them.  The event
fires at the left fold ``((now + a) + b) + c …`` — bit for bit the instant
separate ``timeout(a)``, ``timeout(b)``, ``timeout(c)`` … reach — not at
``now + (a + b + c)``, which can differ in the last bit.  Every part is
validated on its own (``not (d >= 0)``, so NaN is rejected too: a NaN
instant would be popped out of order and poison the clock).  Use it only
where no observer can tell the intermediate instants apart (nothing is read
or written between the charges).  The idiom for a loop of charges and waits
is *carry the unfired charge, flush before a wait*: collect what is owed and
fire it as one event only when the process must really wait for something
else (:meth:`repro.flink.shuffle.Exchange._send`).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional, Sequence

from repro.common.errors import InterruptError, SimulationError

# Priority bands for same-time ordering.  URGENT is used by the kernel itself
# (process resumption) so that control flow continues before new model events
# scheduled at the same instant.
URGENT = 0
NORMAL = 1

#: Type of the generators that implement simulation processes.
ProcessGenerator = Generator["Event", Any, Any]

#: Allocates an event whose builder fills the slots in the same frame.
_new = object.__new__


class Event:
    """An occurrence at a point in simulated time.

    An event starts *pending*, becomes *triggered* once given a value via
    :meth:`succeed` / :meth:`fail` (and scheduled), and *processed* once its
    callbacks have run.  Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    _PENDING = object()

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = Event._PENDING
        self._ok: bool = True
        self._defused = False

    # -- state ----------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled to fire."""
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is Event._PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not Event._PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env._now, NORMAL, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        Waiters receive the exception thrown into their generator.  If nobody
        ever waits, the failure surfaces from :meth:`Environment.step`.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def defused(self) -> None:
        """Mark a failed event as handled so it will not crash ``run()``."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation — plus every
    charge of ``then`` (one number, or a tuple/list of them), left-folded:
    ``((now + delay) + then[0]) + then[1] …`` (see the module docstring).
    Built, validated and scheduled by :meth:`Environment.timeout`.
    """

    __slots__ = ()


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks = [process._wake]
        self._ok = True
        self._value = None
        env._schedule(self, URGENT, 0.0)


class Interruption(Event):
    """Internal event that throws :class:`InterruptError` into a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any):
        super().__init__(process.env)
        if process.triggered:
            raise SimulationError("cannot interrupt a finished process")
        if process is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        self.process = process
        self.callbacks = [self._interrupt]
        self._ok = False
        self._value = InterruptError(cause)
        self._defused = True
        self.env._schedule(self, URGENT, 0.0)

    def _interrupt(self, event: Event) -> None:
        if self.process.triggered:
            return  # the process finished in the meantime; interrupt is moot
        # Unsubscribe from whatever the process was waiting on, then resume it
        # with the interrupt error.
        target = self.process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self.process._wake)
            except ValueError:
                pass
        self.process._resume(self)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is an event: it succeeds with the generator's return value,
    or fails with the exception that escaped the generator.
    """

    __slots__ = ("_generator", "_target", "_wake", "name")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: Optional[str] = None):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # The one callback every event this process sleeps on is given;
        # dropped when the generator ends, so a finished process is not a
        # reference cycle.
        self._wake: Optional[Callable[[Event], None]] = self._resume
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptError` into the process at the current time."""
        Interruption(self, cause)

    # -- the scheduler's entry point --------------------------------------------
    def _resume(self, event: Event) -> None:
        env = self.env
        generator = self._generator
        env._active = self
        try:
            while True:
                try:
                    if event._ok:
                        next_event = generator.send(event._value)
                    else:
                        event._defused = True
                        next_event = generator.throw(event._value)
                except StopIteration as stop:
                    self._target = self._wake = None
                    self.succeed(stop.value)
                    break
                except BaseException as exc:
                    self._target = self._wake = None
                    self.fail(exc)
                    break

                if not isinstance(next_event, Event):
                    err = SimulationError(
                        f"process {self.name!r} yielded a non-event: "
                        f"{next_event!r}")
                    self._target = self._wake = None
                    try:
                        generator.throw(err)
                    except (StopIteration, SimulationError):
                        pass
                    self.fail(err)
                    break

                callbacks = next_event.callbacks
                if callbacks is not None:
                    # Not yet processed: subscribe and go to sleep.
                    callbacks.append(self._wake)
                    self._target = next_event
                    break
                # Already processed (or processed at birth): continue within
                # this instant with its value.
                event = next_event
        finally:
            env._active = None


class ConditionValue:
    """Ordered mapping of event -> value produced by :class:`AllOf`."""

    def __init__(self, events: list[Event]):
        self.events = events

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(event)
        return event.value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def values(self) -> list[Any]:
        """Values of the fired events, in the order they were passed in."""
        return [e.value for e in self.events]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ConditionValue {self.values()!r}>"


class AllOf(Event):
    """Fires once *all* of a fixed set of sub-events have fired.

    Counts down: each sub-event reports exactly once (at construction if it
    is already processed, from its callbacks otherwise), so fan-in costs
    O(1) per sub-event.  A failed sub-event fails the join at once.
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        for e in self._events:
            if e.env is not env:
                raise SimulationError("events from different environments")
        self._pending = len(self._events)
        if not self._events:
            self.succeed(ConditionValue([]))
            return
        for e in self._events:
            if e.callbacks is None:
                self._on_sub_event(e)
            else:
                e.callbacks.append(self._on_sub_event)

    def _on_sub_event(self, event: Event) -> None:
        if self._value is not Event._PENDING:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending <= 0:
            self.succeed(ConditionValue(self._events))


class Environment:
    """The simulation environment: virtual clock plus event heap."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active: Optional[Process] = None

    # -- introspection -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active

    # -- event factories ---------------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event (a one-shot signal)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                then: float | Sequence[float] = 0.0) -> Timeout:
        """An event that fires ``delay`` seconds from now with ``value``.

        ``then`` fuses further back-to-back charges (one, or a tuple/list)
        into the same event, firing at ``((now + delay) + then[0]) + …``.
        """
        # ``not (d >= 0)`` rather than ``d < 0``: NaN fails it as well.
        if not delay >= 0:
            raise ValueError(f"timeout part 0 is negative or NaN: {delay!r}")
        at = self._now + delay
        if then:  # 0.0, () and [] add nothing: the plain path stops here
            parts = then if isinstance(then, (tuple, list)) else (then,)
            for part in parts:
                if not part >= 0:
                    i = next(i for i, p in enumerate(parts, 1) if not p >= 0)
                    raise ValueError(
                        f"timeout part {i} is negative or NaN: {part!r}")
                at += part
        # A timeout is the most common event and is exactly one heap entry.
        event = _new(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = False
        self._seq = seq = self._seq + 1
        heappush(self._heap, (at, NORMAL, seq, event))
        return event

    def process(self, generator: ProcessGenerator,
                name: Optional[str] = None) -> Process:
        """Start ``generator`` as a new process; returns the process event."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now + delay, priority, seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        self._now, _prio, _seq, event = heappop(self._heap)
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failure nobody waited on: surface it instead of dropping it.
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the schedule drains, ``until`` (a time) passes, or
        ``until`` (an event) fires.  Returns the event's value in that case.
        """
        if isinstance(until, Event):
            stop = until
            if stop.callbacks is None:
                # Already processed before run() was called.
                if not stop._ok:
                    raise stop._value
                return stop._value
            sentinel: list[Event] = []
            stop.callbacks.append(sentinel.append)
            while self._heap:
                self.step()
                if sentinel:
                    if not stop._ok:
                        stop._defused = True
                        raise stop._value
                    return stop._value
            raise SimulationError(
                "schedule ran dry before the awaited event fired (deadlock?)")
        if until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(f"until={horizon} is in the past "
                                 f"(now={self._now})")
            while self._heap and self._heap[0][0] <= horizon:
                self.step()
            self._now = max(self._now, horizon)
            return None
        while self._heap:
            self.step()
        return None
