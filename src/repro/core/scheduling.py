"""The adaptive locality-aware scheduling scheme (paper §5.3).

Two algorithms, implemented verbatim so they can be unit-tested in
isolation from the stream machinery:

* :func:`schedule_work` — **Algorithm 5.1** ``Scheduling(inBuffer, outBuffer)``:
  ask the GMemoryManager which GPU caches the most input bytes (``GID``);
  prefer an idle stream in that GPU's bulk; otherwise balance to the bulk
  with the most idle streams; if no stream is idle anywhere, push the work
  into the GWork pool — the ``GID`` queue when locality exists, else the
  shortest queue.
* :func:`steal_work` — **Algorithm 5.2** ``Stealing(GID)``: a stream that
  finished its work first drains its own GPU's queue; if that is empty it
  steals from the longest queue; if all queues are empty it returns None
  (the stream goes idle).

:func:`locality_keys` feeds Algorithm 5.1: it enumerates every cache key a
GWork could hit on a device — primary input blocks, whole secondary
operands, and (for fused chains) per-block stage outputs — so iterative
jobs land on the GPU already holding their chain intermediates.
"""

from __future__ import annotations

from typing import Deque, Hashable, List, Optional, Protocol, Sequence

from repro.core.gmemory import GMemoryManager
from repro.core.gwork import GWork, PRIMARY, STAGE_OUT


class StreamLike(Protocol):  # pragma: no cover - structural typing only
    device_index: int


class ScheduleDecision:
    """Outcome of Algorithm 5.1 for one GWork."""

    __slots__ = ("stream", "queue_index", "gid")

    def __init__(self, stream: Optional[StreamLike],
                 queue_index: Optional[int], gid: Optional[int]):
        self.stream = stream          # idle stream to run on, if any
        self.queue_index = queue_index  # pool queue to park in, otherwise
        self.gid = gid                # locality GPU (None = no affinity)

    @property
    def dispatched(self) -> bool:
        """True when an idle stream was found (streamID != -1)."""
        return self.stream is not None


def schedule_work(work: GWork, gmm: GMemoryManager,
                  locality_keys: List[Hashable],
                  idle_by_bulk: Sequence[List[StreamLike]],
                  queues: Sequence[Deque[GWork]]) -> ScheduleDecision:
    """Algorithm 5.1: pick an idle stream or a pool queue for ``work``.

    ``idle_by_bulk[g]`` lists the idle streams of GPU ``g``'s bulk;
    ``queues[g]`` is GPU ``g``'s FIFO queue in the GWork pool.  The chosen
    stream is *not* removed from ``idle_by_bulk`` — the caller owns that
    state transition.
    """
    # Step 1: GMemoryManager determines the locality GPU.
    gid = gmm.locality_gid(work, locality_keys)

    def most_idle_bulk() -> Optional[StreamLike]:
        best = max(range(len(idle_by_bulk)),
                   key=lambda g: (len(idle_by_bulk[g]), -g))
        if idle_by_bulk[best]:
            return idle_by_bulk[best][0]
        return None

    # Step 2: prefer an idle stream in the GID bulk; else balance.
    if gid is not None:
        if idle_by_bulk[gid]:
            return ScheduleDecision(idle_by_bulk[gid][0], None, gid)
        stream = most_idle_bulk()
        if stream is not None:
            return ScheduleDecision(stream, None, gid)
    else:
        stream = most_idle_bulk()
        if stream is not None:
            return ScheduleDecision(stream, None, None)

    # Step 3: no idle stream anywhere -> park in the GWork pool.
    if gid is not None:
        return ScheduleDecision(None, gid, gid)
    shortest = min(range(len(queues)), key=lambda g: (len(queues[g]), g))
    return ScheduleDecision(None, shortest, None)


def locality_keys(work: GWork, block_nbytes: int) -> List[Hashable]:
    """All cache keys whose presence on a device makes it a locality GPU.

    Covers the primary input's per-block keys, the whole-operand keys of
    secondary inputs, and — for a chained GWork — the per-block stage-output
    keys of every caching stage, so a resumable chain counts as locality
    even when its raw input was never cached.
    """
    if not work.cache:
        return []
    keys: List[Hashable] = []
    n_primary_blocks = 0
    for name, hbuf in work.in_buffers.items():
        if name == PRIMARY:
            n_primary_blocks = hbuf.n_blocks(block_nbytes)
            if work.primary_cached:
                keys.extend((work.cache_key, PRIMARY, i)
                            for i in range(n_primary_blocks))
        else:
            keys.append((work.cache_key, name))
    for stage in work.stages:
        if stage.cache_output and stage.cache_key is not None:
            keys.extend((stage.cache_key, STAGE_OUT, i)
                        for i in range(n_primary_blocks))
    return keys


def steal_work(gid: int, queues: Sequence[Deque[GWork]]) -> Optional[GWork]:
    """Algorithm 5.2: next work for an idle stream of GPU ``gid``."""
    if queues[gid]:
        return queues[gid].popleft()
    if all(not q for q in queues):
        return None
    longest = max(range(len(queues)), key=lambda g: (len(queues[g]), -g))
    return queues[longest].popleft()
