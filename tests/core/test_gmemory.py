"""Tests for GMemoryManager: cache regions, FIFO/no-evict GC, locality."""

import pytest

from repro.common import Environment
from repro.common.errors import ConfigError
from repro.core.gmemory import CacheRegion, EvictionPolicy, GMemoryManager
from repro.core.gwork import GWork
from repro.core.hbuffer import HBuffer
from repro.gpu import GPUDevice, TESLA_C2050


@pytest.fixture
def devices():
    env = Environment()
    return [GPUDevice(env, TESLA_C2050, index=i) for i in range(2)]


def make_region(device, capacity=1000, policy=EvictionPolicy.FIFO):
    return CacheRegion(device, capacity, policy)


class TestCacheRegion:
    def test_insert_then_lookup(self, devices):
        region = make_region(devices[0])
        entry = region.try_insert("k1", 400)
        assert entry is not None
        assert region.lookup("k1") is entry
        assert region.used == 400

    def test_miss_counts(self, devices):
        region = make_region(devices[0])
        assert region.lookup("absent") is None
        assert region.misses == 1

    def test_fifo_eviction_oldest_first(self, devices):
        region = make_region(devices[0], capacity=1000)
        region.try_insert("a", 400)
        region.try_insert("b", 400)
        entry = region.try_insert("c", 400)  # must evict "a"
        assert entry is not None
        assert region.contains("b") and region.contains("c")
        assert not region.contains("a")
        assert region.evictions == 1
        assert region.used == 800

    def test_fifo_evicts_multiple_until_fit(self, devices):
        # Paper: "the sizes of these objects are added until the sizes are
        # bigger than the size of the new partition".
        region = make_region(devices[0], capacity=1000)
        for key in ("a", "b", "c"):
            region.try_insert(key, 300)
        entry = region.try_insert("big", 700)
        assert entry is not None
        assert not region.contains("a") and not region.contains("b")
        assert region.contains("c") and region.contains("big")

    def test_no_evict_policy_refuses_when_full(self, devices):
        region = make_region(devices[0], capacity=1000,
                             policy=EvictionPolicy.NO_EVICT)
        region.try_insert("a", 600)
        assert region.try_insert("b", 600) is None
        assert region.contains("a")
        assert region.evictions == 0

    def test_block_larger_than_region_never_cached(self, devices):
        region = make_region(devices[0], capacity=1000)
        assert region.try_insert("huge", 2000) is None

    @pytest.mark.parametrize("policy", [EvictionPolicy.FIFO,
                                        EvictionPolicy.LRU])
    def test_eviction_passes_pinned_entries_by(self, devices, policy):
        region = make_region(devices[0], capacity=1000, policy=policy)
        a = region.try_insert("a", 400)
        region.try_insert("b", 400)
        a.pinned_by.append(7)              # block "a" is still in flight
        assert region.try_insert("c", 400) is not None   # evicts "b"
        assert region.contains("a") and not region.contains("b")
        assert region.evictions == 1 and region.used == 800

    @pytest.mark.parametrize("policy", [EvictionPolicy.FIFO,
                                        EvictionPolicy.LRU])
    def test_no_room_among_unpinned_entries_evicts_nothing(self, devices,
                                                            policy):
        region = make_region(devices[0], capacity=1000, policy=policy)
        a = region.try_insert("a", 400)
        b = region.try_insert("b", 400)
        a.buffer.data = b.buffer.data = "landed"
        b.pinned_by.append(7)
        assert region.try_insert("c", 700) is None
        assert region.contains("a") and region.contains("b")
        assert a.buffer.data == "landed" and region.evictions == 0
        b.pinned_by.remove(7)              # consumed: evictable again
        assert region.try_insert("c", 700) is not None
        assert not region.contains("a") and not region.contains("b")

    def test_release_work_sweeps_what_a_failed_work_left(self, devices):
        region = make_region(devices[0], capacity=1000)
        empty = region.try_insert("empty", 100, owner=1)
        landed = region.try_insert("landed", 100, owner=1)
        landed.buffer.data = "data"
        spill = region.try_insert(("spill", 1, 0, 0), 100, owner=1)
        spill.buffer.data = "data"
        other = region.try_insert("other", 100, owner=2)
        hit = region.try_insert("hit", 100, owner=2)
        hit.buffer.data = "data"
        hit.pinned_by.extend([1, 2])
        region.release_work(1)
        # Its empty entry and its spill are gone; its landed entry stays,
        # and so do the other work's entries (empty or not) and its pins.
        assert not region.contains("empty")
        assert not region.contains(("spill", 1, 0, 0))
        assert region.contains("landed") and region.contains("other")
        assert hit.pinned_by == [2]
        assert region.used == 300
        assert empty.buffer.data is None and other.buffer.data is None
        assert region.try_insert("empty", 100) is not None

    def test_duplicate_key_rejected(self, devices):
        region = make_region(devices[0])
        region.try_insert("k", 10)
        with pytest.raises(ConfigError):
            region.try_insert("k", 10)

    def test_region_reserves_device_memory(self, devices):
        device = devices[0]
        before = device.memory.available
        region = make_region(device, capacity=10_000)
        assert device.memory.available == before - 10_000
        region.release()
        assert device.memory.available == before


class TestGMemoryManager:
    def _work(self, app="appA"):
        h = HBuffer([1.0] * 10, element_nbytes=8)
        return GWork(execute_name="k", in_buffers={"in": h},
                     out_buffer=HBuffer([], 8), size=10, cache=True,
                     cache_key=("base", 0), app_id=app)

    def test_regions_lazy_per_app_and_device(self, devices):
        gmm = GMemoryManager(devices, cache_capacity_per_device=1000)
        assert not gmm.has_region("appA", 0)
        gmm.region("appA", 0)
        assert gmm.has_region("appA", 0)
        assert not gmm.has_region("appA", 1)
        assert not gmm.has_region("appB", 0)

    def test_release_app_only_touches_that_app(self, devices):
        gmm = GMemoryManager(devices, cache_capacity_per_device=1000)
        gmm.region("appA", 0)
        gmm.region("appB", 0)
        gmm.release_app("appA")
        assert not gmm.has_region("appA", 0)
        assert gmm.has_region("appB", 0)

    def test_locality_gid_picks_device_with_most_cached_bytes(self, devices):
        gmm = GMemoryManager(devices, cache_capacity_per_device=1000)
        gmm.region("appA", 0).try_insert(("base", 0, "in", 0), 100)
        gmm.region("appA", 1).try_insert(("base", 0, "in", 1), 500)
        work = self._work()
        keys = [("base", 0, "in", 0), ("base", 0, "in", 1)]
        assert gmm.locality_gid(work, keys) == 1

    def test_locality_gid_none_when_nothing_cached(self, devices):
        gmm = GMemoryManager(devices, cache_capacity_per_device=1000)
        assert gmm.locality_gid(self._work(), [("base", 0, "in", 0)]) is None

    def test_locality_gid_none_for_uncached_work(self, devices):
        gmm = GMemoryManager(devices, cache_capacity_per_device=1000)
        work = self._work()
        work.cache = False
        gmm.region("appA", 0).try_insert(("x",), 100)
        assert gmm.locality_gid(work, [("x",)]) is None

    def test_stats(self, devices):
        gmm = GMemoryManager(devices, cache_capacity_per_device=1000)
        region = gmm.region("appA", 0)
        region.try_insert("k", 10)
        region.lookup("k")
        region.lookup("absent")
        assert gmm.stats("appA") == {0: (1, 1, 0)}
