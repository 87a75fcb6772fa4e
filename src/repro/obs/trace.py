"""GTrace: structured tracing on the simulation clock.

A :class:`Tracer` holds *spans* (an interval of simulated time on a named
track) and *instants* (a point marker) with string categories and free-form
``args``.  Timestamps come straight off the simulation clock, so two runs of
the same deterministic job produce byte-identical traces — traces are
diffable artifacts, not samples.

Tracks mirror Chrome's trace-event process/thread model: a *process* groups
related *threads* (e.g. process ``worker0-gpu0`` with threads ``kernel``,
``copy:h2d``, ``copy:d2h``), and the Perfetto UI renders one lane per
thread.  That is what makes transfer/compute overlap visible: kernel spans
and copy spans live on separate lanes of the same device process.

Events are drawn when read.  The tracer keeps ``log``, the one fact log of
the :class:`~repro.obs.bus.Observability` that owns it: a flat list of
:data:`ROW`-field rows.  A bus fact is ``step, process, thread, t0, t1,
attrs``, its step saying which lanes it opens and what it draws.  Every
event comes from a row, with one exception: :meth:`Tracer.span`, kept for
the benchmark probes that time it, draws the rows logged before its span
first, so the span keeps its place among the facts.
Every read — ``events``, ``len``, :meth:`~Tracer.spans`, the Chrome export,
:meth:`~Tracer.track` — first draws the rows logged since the last one, in
log order: lanes are numbered in first-use order exactly as if each row had
been drawn when it was logged.

Disabled tracers are free: :meth:`Tracer.span` returns a shared no-op
context manager — no events, no allocations that grow with the run, and
(because tracing never touches the event heap) zero simulated-clock
divergence either way.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

__all__ = ["Track", "TraceEvent", "Tracer", "NULL_SPAN", "NULL_TRACK", "ROW",
           "CHROME_CHUNK", "chrome_document"]

#: Multiplier from simulated seconds to the microseconds Chrome traces use.
_US = 1e6
#: Fields per row of a fact log.
ROW = 6
#: Chrome trace-event objects encoded at a time: what an export holds at
#: once is one chunk, whatever the length of the run.
CHROME_CHUNK = 256


def chrome_document(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The Chrome JSON document around ``events`` (its ``traceEvents``)."""
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated", "time_unit": "us"},
    }


def _chunks(objects: Iterator[Any]) -> Iterator[List[Any]]:
    while chunk := list(islice(objects, CHROME_CHUNK)):
        yield chunk


class Track(NamedTuple):
    """A (process, thread) lane pair — the address of a trace event."""

    pid: int
    tid: int


class TraceEvent:
    """One recorded occurrence: a complete span (``X``) or an instant (``i``).

    ``ts``/``dur`` are in simulated *seconds* internally; the Chrome export
    converts to microseconds.
    """

    __slots__ = ("name", "cat", "ph", "ts", "dur", "pid", "tid", "args")

    def __init__(self, name: str, cat: str, ph: str, ts: float, dur: float,
                 pid: int, tid: int, args: Optional[Dict[str, Any]]):
        self.name = name
        self.cat = cat
        self.ph = ph
        self.ts = ts
        self.dur = dur
        self.pid = pid
        self.tid = tid
        self.args = args

    @property
    def end(self) -> float:
        """Span end time (== ``ts`` for instants)."""
        return self.ts + self.dur

    def overlaps(self, other: "TraceEvent") -> bool:
        """True if two spans share any open interval of simulated time."""
        return self.ts < other.end and other.ts < self.end

    def to_chrome(self) -> Dict[str, Any]:
        """This event as one Chrome trace-event JSON object."""
        obj: Dict[str, Any] = {
            "name": self.name, "cat": self.cat, "ph": self.ph,
            "ts": self.ts * _US, "pid": self.pid, "tid": self.tid,
            "args": dict(self.args) if self.args else {},
        }
        if self.ph == "X":
            obj["dur"] = self.dur * _US
        elif self.ph == "i":
            obj["s"] = "t"  # instant scoped to its thread lane
        return obj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceEvent {self.ph} {self.name!r} cat={self.cat} "
                f"ts={self.ts:.6f} dur={self.dur:.6f}>")


class _Span:
    """Context manager recording one span; created by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "name", "cat", "track", "args", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, track: Track,
                 args: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.track = track
        self.args = args
        self._t0 = 0.0

    def set(self, **kwargs: Any) -> "_Span":
        """Attach/override args mid-span (e.g. byte counts known at exit)."""
        self.args.update(kwargs)
        return self

    def __enter__(self) -> "_Span":
        self._t0 = self._tracer.env.now
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        tracer = self._tracer
        tracer._record(TraceEvent(
            self.name, self.cat, "X", self._t0, tracer.env.now - self._t0,
            self.track.pid, self.track.tid, self.args or None))
        return False


class _NullSpan:
    """Shared no-op span for disabled tracers (zero-allocation fast path)."""

    __slots__ = ()

    def set(self, **kwargs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The shared no-op span and track a disabled tracer (and the all-off bus)
#: hands out.
NULL_SPAN = _NullSpan()
NULL_TRACK = Track(0, 0)


class Tracer:
    """Collects structured trace events against a simulation environment.

    ``env`` only needs a ``now`` attribute (the sim clock); the tracer never
    schedules events, so enabling it cannot perturb simulated time.
    """

    def __init__(self, env: Any, enabled: bool = False):
        self.env = env
        self.enabled = bool(enabled)
        #: The rows events are drawn from (see the module docstring).
        self.log: List[Any] = []
        self._drawn = 0
        self._events: List[TraceEvent] = []
        self._pids: Dict[str, int] = {}
        self._tracks: Dict[Tuple[str, str], Track] = {}
        self._process_names: List[Tuple[int, str]] = []
        self._thread_names: List[Tuple[int, int, str]] = []

    # -- tracks ---------------------------------------------------------------
    def track(self, process: str, thread: str) -> Track:
        """The (pid, tid) lane for ``process``/``thread``, registered lazily.

        Ids are handed out in first-use order, which is deterministic under
        the sim clock — the same run always numbers tracks identically.
        """
        if not self.enabled:
            return NULL_TRACK
        self._draw()
        return self._lane(process, thread)

    def _lane(self, process: str, thread: str) -> Track:
        track = self._tracks.get((process, thread))
        if track is None:
            pid = self._pids.get(process)
            if pid is None:
                pid = len(self._pids) + 1
                self._pids[process] = pid
                self._process_names.append((pid, process))
            track = Track(pid, len(self._tracks) + 1)
            self._tracks[process, thread] = track
            self._thread_names.append((pid, track.tid, thread))
        return track

    def _draw(self) -> None:
        """Draw the rows logged since the last read, in log order."""
        log = self.log
        start, end = self._drawn, len(log)
        if start == end or not self.enabled:
            return
        self._drawn = end
        append, tracks, lane = self._events.append, self._tracks, self._lane
        rows = iter(log[start:end])
        for step, process, thread, t0, t1, attrs in zip(*(rows,) * ROW):
            if process is None:
                continue
            for opened in step.opens:
                lane(process, opened)
            if thread is None:
                continue
            track = tracks.get((process, thread)) or lane(process, thread)
            if step.cat is not None:
                hidden = step.hidden
                args = {k: v for k, v in attrs.items()
                        if k not in hidden} if hidden else attrs
                append(TraceEvent(
                    step.name.format_map(attrs) if step.templated
                    else step.name, step.cat, step.ph, t0, t1 - t0,
                    track.pid, track.tid, args or None))

    # -- recording -------------------------------------------------------------
    def span(self, name: str, cat: str, track: Track, **args: Any):
        """A context manager recording ``name`` from enter to exit."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, cat, track, args)

    def _record(self, event: TraceEvent) -> None:
        """Add a span's event after the rows logged before it."""
        if self._drawn != len(self.log):
            self._draw()
        self._events.append(event)

    # -- introspection ----------------------------------------------------------
    @property
    def events(self) -> List[TraceEvent]:
        """Every event, in the order its row was logged."""
        self._draw()
        return self._events

    def __len__(self) -> int:
        return len(self.events)

    def spans(self, cat: Optional[str] = None,
              name: Optional[str] = None) -> List[TraceEvent]:
        """Recorded spans, optionally filtered by category and/or name."""
        return [e for e in self.events if e.ph == "X"
                and (cat is None or e.cat == cat)
                and (name is None or e.name == name)]

    def instants(self, cat: Optional[str] = None,
                 name: Optional[str] = None) -> List[TraceEvent]:
        """Recorded instants, optionally filtered by category and/or name."""
        return [e for e in self.events if e.ph == "i"
                and (cat is None or e.cat == cat)
                and (name is None or e.name == name)]

    def lane_names(self) -> Tuple[Dict[int, str], Dict[Tuple[int, int], str]]:
        """``({pid: process}, {(pid, tid): thread})`` of every lane drawn."""
        self._draw()
        return (dict(self._process_names),
                {(pid, tid): name for pid, tid, name in self._thread_names})

    def track_names(self) -> Dict[str, List[str]]:
        """Registered lanes: process name -> list of its thread names."""
        self._draw()
        out: Dict[str, List[str]] = {name: [] for _, name in
                                     self._process_names}
        by_pid = {pid: name for pid, name in self._process_names}
        for pid, _tid, thread in self._thread_names:
            out[by_pid[pid]].append(thread)
        return out

    # -- export -----------------------------------------------------------------
    def chrome_chunks(self) -> Iterator[List[Dict[str, Any]]]:
        """The Chrome trace-event objects in lists of at most
        :data:`CHROME_CHUNK`: the metadata records naming every lane, then
        the events, each built only when its chunk is reached."""
        self._draw()
        yield from _chunks(chain(
            ({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
              "args": {"name": name}} for pid, name in self._process_names),
            ({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
              "args": {"name": name}}
             for pid, tid, name in self._thread_names)))
        yield from _chunks(e.to_chrome() for e in self._events)

    def to_chrome(self) -> Dict[str, Any]:
        """The full Chrome JSON document (load in Perfetto / chrome://tracing)."""
        return chrome_document([obj for chunk in self.chrome_chunks()
                                for obj in chunk])
