"""GMemoryManager: automatic device memory management + the GPU cache (§4.2).

Explicit ``cudaMalloc``/``cudaFree`` management is "complicated, error-prone
and a heavy burden" (§4.2) — GFlink's GMemoryManager does it automatically:
input/output buffers for a GWork are allocated before the transfers and
released after execution *unless* the data is marked for caching.

The cache (§4.2.2): each application owns a cache region per device,
reserved when the application starts and released when it ends.  Entries are
kept in a hash table keyed by ``(partition id, block id)``-style keys, each
mapping to the offset/size of the cached block, with a FIFO list for garbage
collection.  Two GC policies are provided, exactly the paper's two schemes:

* ``FIFO`` — evict oldest entries one by one until the new block fits;
* ``NO_EVICT`` — "when the cache region is fully utilized, no data can be
  cached", for working sets larger than the region (one iteration's data
  would otherwise evict itself before reuse).

A third policy, ``LRU``, goes beyond the paper: hits refresh an entry's
position in the list, so eviction removes the *least recently used* block —
better than FIFO when a hot subset (e.g. a fused chain's cached stage
outputs) is re-probed every iteration while cold blocks stream past.
Select it with the ``cache_policy`` config flag
(:class:`repro.core.gpumanager.GPUManagerConfig`).

The region also serves as the *spill* target for chained-kernel
intermediates: when a stage output of a fused GWork exceeds free device
memory, it borrows room in the region (and is removed as soon as the next
stage has consumed it) instead of failing the work.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Hashable, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.core.gwork import GWork
from repro.gpu.device import GPUDevice
from repro.gpu.memory import DeviceBuffer


class EvictionPolicy(Enum):
    """The two garbage-collection schemes of §4.2.2, plus LRU."""

    FIFO = "fifo"
    NO_EVICT = "no-evict"
    LRU = "lru"


@dataclass
class CacheEntry:
    """One cached block inside a region.

    ``owner`` is the GWork that inserted it.  ``pinned_by`` lists the
    GWorks that hold it in flight — from the stage that takes it until the
    one that consumes it — and eviction passes a pinned entry by.
    """

    key: Hashable
    offset: int
    nbytes: int
    buffer: DeviceBuffer  # unregistered view into the region's reservation
    owner: Optional[int] = None
    pinned_by: List[int] = field(default_factory=list)


@dataclass(frozen=True)
class CacheStats:
    """Aggregated cache statistics — the public observability view.

    Metrics collection (:func:`repro.obs.export.collect_cluster`) reads
    this instead of poking at the manager's private region table.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    spills: int = 0
    used_bytes: int = 0
    capacity_bytes: int = 0
    entries: int = 0

    @property
    def probes(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> Optional[float]:
        """Hits over probes, or None when the cache was never probed."""
        return self.hits / self.probes if self.probes else None

    def merged(self, region: "CacheRegion") -> "CacheStats":
        """These stats plus one region's counters."""
        return CacheStats(
            hits=self.hits + region.hits,
            misses=self.misses + region.misses,
            evictions=self.evictions + region.evictions,
            spills=self.spills + region.spills,
            used_bytes=self.used_bytes + region.used,
            capacity_bytes=self.capacity_bytes + region.capacity,
            entries=self.entries + len(region))


class CacheRegion:
    """A per-application reservation of one device's memory.

    The hash table is an :class:`OrderedDict`, which doubles as the FIFO
    list ("a corresponding FIFO list is utilized to store the elements in the
    hash table").
    """

    def __init__(self, device: GPUDevice, capacity: int,
                 policy: EvictionPolicy):
        if capacity <= 0:
            raise ConfigError(f"cache capacity must be positive: {capacity}")
        self.device = device
        self.capacity = capacity
        self.policy = policy
        # One reservation from the device allocator backs the whole region.
        self.reservation = device.memory.alloc(capacity)
        self._entries: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()
        self._cursor = 0  # sequential allocation within the region
        self.used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.spills = 0

    # -- lookup ----------------------------------------------------------------
    def lookup(self, key: Hashable) -> Optional[CacheEntry]:
        """Hash-table probe; counts hit/miss statistics."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
            if self.policy is EvictionPolicy.LRU:
                # Refresh recency: the list front stays the eviction victim.
                self._entries.move_to_end(key)
        return entry

    def entry(self, key: Hashable) -> Optional[CacheEntry]:
        """Probe without touching statistics or recency (internal reuse)."""
        return self._entries.get(key)

    def contains(self, key: Hashable) -> bool:
        """Probe without touching statistics (scheduling uses this)."""
        return key in self._entries

    def cached_bytes_for(self, keys: List[Hashable]) -> int:
        """Sum of cached sizes among ``keys`` (Algorithm 5.1's input)."""
        return sum(self._entries[k].nbytes
                   for k in keys if k in self._entries)

    # -- insertion -----------------------------------------------------------------
    def try_insert(self, key: Hashable, nbytes: int,
                   owner: Optional[int] = None) -> Optional[CacheEntry]:
        """Reserve room for a new block; returns its entry or None.

        FIFO: evict oldest entries until the block fits (paper: "the first
        objects in the FIFO list will be selected one by one ... until the
        sizes are bigger than the size of the new partition").  Pinned
        entries are passed by; when the unpinned ones cannot make room,
        nothing is evicted and the block gets no entry.
        NO_EVICT: fail when the region is full.
        """
        if nbytes > self.capacity:
            return None
        if key in self._entries:
            raise ConfigError(f"cache key {key!r} already present")
        room = self.capacity - self.used
        if nbytes > room:
            if self.policy is EvictionPolicy.NO_EVICT:
                return None
            victims = []
            for victim in self._entries.values():
                if nbytes <= room:
                    break
                if not victim.pinned_by:
                    victims.append(victim)
                    room += victim.nbytes
            if nbytes > room:
                return None
            for victim in victims:
                del self._entries[victim.key]
                self.used -= victim.nbytes
                victim.buffer.data = None
                self.evictions += 1
        buffer = DeviceBuffer(nbytes, self.device.name)
        entry = CacheEntry(key=key, offset=self._cursor, nbytes=nbytes,
                           buffer=buffer, owner=owner)
        self._cursor = (self._cursor + nbytes) % max(self.capacity, 1)
        self._entries[key] = entry
        self.used += nbytes
        return entry

    # -- removal -------------------------------------------------------------------
    def remove(self, key: Hashable) -> None:
        """Drop an entry (spilled intermediates, invalidated blocks)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        self.used -= entry.nbytes
        entry.buffer.data = None

    def release_work(self, work_id: int) -> None:
        """Sweep what a failed GWork left behind: its pins, its spill
        entries, and the entries it inserted whose data never landed (a
        retry would find them present but empty)."""
        stale = []
        for key, entry in self._entries.items():
            while work_id in entry.pinned_by:
                entry.pinned_by.remove(work_id)
            if entry.owner == work_id and (
                    entry.buffer.data is None
                    or (isinstance(key, tuple) and key[:1] == ("spill",))):
                stale.append(key)
        for key in stale:
            self.remove(key)

    def release(self) -> None:
        """Free the reservation (application finished)."""
        self._entries.clear()
        self.used = 0
        if not self.reservation.freed:
            self.device.memory.free(self.reservation)

    def __len__(self) -> int:
        return len(self._entries)


class GMemoryManager:
    """Per-worker automatic device memory management and cache coordination."""

    def __init__(self, devices: List[GPUDevice],
                 cache_capacity_per_device: int,
                 policy: EvictionPolicy = EvictionPolicy.FIFO):
        self.devices = list(devices)
        self.cache_capacity = cache_capacity_per_device
        self.policy = policy
        # (app_id, device_index) -> CacheRegion, created lazily per §4.2.2
        # ("allocated when the job starts").
        self._regions: Dict[Tuple[str, int], CacheRegion] = {}

    # -- regions -------------------------------------------------------------------
    def region(self, app_id: str, device_index: int) -> CacheRegion:
        """The cache region of ``app_id`` on device ``device_index``.

        The user-requested capacity is clamped to half the device's memory
        so working buffers (kernel inputs/outputs in flight) always fit —
        a 1 GiB region request must not brick a 1 GiB GTX 750.
        """
        key = (app_id, device_index)
        if key not in self._regions:
            device = self.devices[device_index]
            capacity = min(self.cache_capacity, device.memory.capacity // 2)
            self._regions[key] = CacheRegion(device, capacity, self.policy)
        return self._regions[key]

    def release_app(self, app_id: str) -> None:
        """Release all of an application's cache regions (job end)."""
        for key in [k for k in self._regions if k[0] == app_id]:
            self._regions.pop(key).release()

    def has_region(self, app_id: str, device_index: int) -> bool:
        return (app_id, device_index) in self._regions

    def invalidate_device(self, device_index: int) -> None:
        """Drop every application's cache region on one device.

        Called when a device is blacklisted after faults: its cached blocks
        are unreachable and must stop attracting locality-aware scheduling
        (``locality_gid`` never returns a device with no regions).
        """
        for key in [k for k in self._regions if k[1] == device_index]:
            self._regions.pop(key).release()

    # -- Algorithm 5.1, step 1 ---------------------------------------------------
    def locality_gid(self, work: GWork,
                     keys: List[Hashable]) -> Optional[int]:
        """Device holding the most cached input bytes for ``work``.

        ``keys`` are the work's block-level cache keys; the paper: "select
        the GPU with the biggest sum of input bytes in its device memory and
        return its index named GID".  Returns None when nothing relevant is
        cached anywhere.
        """
        if not work.cache:
            return None
        best_gid, best_bytes = None, 0
        for gid in range(len(self.devices)):
            if not self.has_region(work.app_id, gid):
                continue
            region = self._regions[(work.app_id, gid)]
            cached = region.cached_bytes_for(keys)
            if cached > best_bytes:
                best_gid, best_bytes = gid, cached
        return best_gid

    # -- statistics ----------------------------------------------------------------
    def stats(self, app_id: str) -> Dict[int, Tuple[int, int, int]]:
        """Per-device (hits, misses, evictions) for an application."""
        out = {}
        for (app, gid), region in self._regions.items():
            if app == app_id:
                out[gid] = (region.hits, region.misses, region.evictions)
        return out

    def apps(self) -> List[str]:
        """Application ids currently holding cache regions."""
        return sorted({app for app, _ in self._regions})

    def cache_stats(self, app_id: Optional[str] = None
                    ) -> Dict[int, CacheStats]:
        """Per-device aggregated :class:`CacheStats`.

        With ``app_id``, only that application's regions count; otherwise
        every application's regions are folded together per device.  This is
        the supported way to read cache statistics from outside.
        """
        out: Dict[int, CacheStats] = {}
        for (app, gid), region in self._regions.items():
            if app_id is not None and app != app_id:
                continue
            out[gid] = out.get(gid, CacheStats()).merged(region)
        return out
