"""Tests for the cache models — especially NEC-SX-style staleness."""

import numpy as np
import pytest

from repro.machine import (
    AddressSpace,
    CoherentCache,
    NoCache,
    WriteThroughNonCoherentCache,
)
from repro.machine.address_space import MemoryError_


def make(model_cls, line_size=8):
    space = AddressSpace(rank=0)
    cache = model_cls(space, line_size=line_size)
    alloc = space.alloc(64)
    return space, cache, alloc


def by(vals):
    return np.array(vals, dtype=np.uint8)


class TestCoherentCache:
    def test_load_reflects_memory(self):
        space, cache, a = make(CoherentCache)
        space.write(a, 0, by([1, 2, 3]))
        assert cache.load(a, 0, 3).tolist() == [1, 2, 3]

    def test_remote_write_immediately_visible(self):
        space, cache, a = make(CoherentCache)
        cache.load(a, 0, 8)  # populate line
        cache.remote_write(a, 0, by([9] * 8))
        assert cache.load(a, 0, 8).tolist() == [9] * 8

    def test_store_visible_to_load(self):
        _, cache, a = make(CoherentCache)
        cache.store(a, 4, by([5, 6]))
        assert cache.load(a, 4, 2).tolist() == [5, 6]

    def test_hit_miss_counters(self):
        _, cache, a = make(CoherentCache)
        cache.load(a, 0, 8)
        assert cache.misses == 1
        cache.load(a, 0, 8)
        assert cache.hits == 1

    def test_remote_write_invalidates_lines(self):
        _, cache, a = make(CoherentCache)
        cache.load(a, 0, 8)
        cache.remote_write(a, 0, by([1] * 8))
        assert cache.invalidations == 1

    def test_is_coherent_flag(self):
        _, cache, _ = make(CoherentCache)
        assert cache.coherent


class TestNonCoherentCache:
    def test_stale_read_after_remote_write(self):
        """The paper's §III-B2 scenario: a remote put is invisible to a
        cached load until a fence."""
        space, cache, a = make(WriteThroughNonCoherentCache)
        assert cache.load(a, 0, 4).tolist() == [0, 0, 0, 0]  # caches line
        cache.remote_write(a, 0, by([7, 7, 7, 7]))
        # memory holds the new data...
        assert space.read(a, 0, 4).tolist() == [7, 7, 7, 7]
        # ...but the cached load is STALE
        assert cache.load(a, 0, 4).tolist() == [0, 0, 0, 0]

    def test_fence_makes_remote_write_visible(self):
        _, cache, a = make(WriteThroughNonCoherentCache)
        cache.load(a, 0, 4)
        cache.remote_write(a, 0, by([7, 7, 7, 7]))
        cache.fence()
        assert cache.load(a, 0, 4).tolist() == [7, 7, 7, 7]

    def test_targeted_invalidation(self):
        _, cache, a = make(WriteThroughNonCoherentCache)
        cache.load(a, 0, 16)  # two lines
        cache.remote_write(a, 0, by([7] * 16))
        cache.invalidate_range(a, 0, 8)  # invalidate first line only
        assert cache.load(a, 0, 8).tolist() == [7] * 8
        assert cache.load(a, 8, 8).tolist() == [0] * 8  # still stale

    def test_uncached_read_sees_remote_write(self):
        """A line never loaded has no stale snapshot to return."""
        _, cache, a = make(WriteThroughNonCoherentCache)
        cache.remote_write(a, 0, by([3, 3]))
        assert cache.load(a, 0, 2).tolist() == [3, 3]

    def test_local_store_writes_through(self):
        space, cache, a = make(WriteThroughNonCoherentCache)
        cache.load(a, 0, 4)
        cache.store(a, 0, by([1, 2, 3, 4]))
        assert space.read(a, 0, 4).tolist() == [1, 2, 3, 4]
        assert cache.load(a, 0, 4).tolist() == [1, 2, 3, 4]

    def test_load_spanning_lines(self):
        space, cache, a = make(WriteThroughNonCoherentCache, line_size=8)
        space.write(a, 0, np.arange(20, dtype=np.uint8))
        assert cache.load(a, 5, 10).tolist() == list(range(5, 15))

    def test_not_coherent_flag(self):
        _, cache, _ = make(WriteThroughNonCoherentCache)
        assert not cache.coherent

    def test_fence_counts_invalidations(self):
        _, cache, a = make(WriteThroughNonCoherentCache)
        cache.load(a, 0, 16)  # 2 lines at line_size=8
        cache.fence()
        assert cache.invalidations == 2

    def test_partial_line_store_refreshes_snapshot(self):
        _, cache, a = make(WriteThroughNonCoherentCache)
        cache.load(a, 0, 8)
        cache.store(a, 2, by([9]))
        got = cache.load(a, 0, 8)
        assert got[2] == 9


class TestNoCache:
    def test_always_fresh(self):
        _, cache, a = make(NoCache)
        cache.load(a, 0, 4)
        cache.remote_write(a, 0, by([5, 5, 5, 5]))
        assert cache.load(a, 0, 4).tolist() == [5] * 4

    def test_fence_is_noop(self):
        _, cache, _ = make(NoCache)
        cache.fence()


class TestLineSizeValidation:
    def test_bad_line_size(self):
        space = AddressSpace(0)
        with pytest.raises(ValueError):
            CoherentCache(space, line_size=0)


LINE_MODELS = [CoherentCache, WriteThroughNonCoherentCache]


def counters(cache):
    return cache.hits, cache.misses, cache.invalidations


@pytest.mark.parametrize("model", LINE_MODELS)
class TestRejectedAccessTouchesNothing:
    """An out-of-bounds access raises before it counts or caches a line."""

    def test_rejected_load_raises_and_leaves_lines_alone(self, model):
        _, cache, a = make(model)  # 64 bytes, line size 8
        cache.load(a, 0, 8)
        before = counters(cache)
        with pytest.raises(MemoryError_):
            cache.load(a, 60, 10)  # lines 7 and 8; line 8 is past the end
        assert counters(cache) == before
        cache.load(a, 56, 8)  # line 7 was not made resident: a miss
        assert counters(cache) == (before[0], before[1] + 1, before[2])

    def test_rejected_load_caches_no_snapshot(self, model):
        _, cache, a = make(model)
        with pytest.raises(MemoryError_):
            cache.load(a, 60, 10)
        cache.fence()
        assert counters(cache) == (0, 0, 0)

    def test_negative_offset_rejected(self, model):
        _, cache, a = make(model)
        with pytest.raises(MemoryError_):
            cache.load(a, -8, 4)
        assert counters(cache) == (0, 0, 0)

    def test_rejected_store_leaves_lines_alone(self, model):
        space, cache, a = make(model)
        with pytest.raises(MemoryError_):
            cache.store(a, 60, by([1] * 10))
        assert counters(cache) == (0, 0, 0)
        assert space.buffer(a).tolist() == [0] * 64


@pytest.mark.parametrize("model", LINE_MODELS)
class TestFreeDropsLines:
    def test_freed_lines_are_dropped_uncounted(self, model):
        space = AddressSpace(rank=0)
        cache = model(space, line_size=64)
        for _ in range(100):
            a = space.alloc(4096)
            cache.load(a, 0, 4096)
            space.free(a)
        assert cache.misses == 100 * 64
        resident = (cache._present if model is CoherentCache
                    else cache._lines)
        assert resident == {}
        cache.fence()
        assert cache.invalidations == 0

    def test_free_keeps_other_allocations(self, model):
        space = AddressSpace(rank=0)
        cache = model(space, line_size=8)
        a, b = space.alloc(16), space.alloc(16)
        cache.load(a, 0, 16)
        cache.load(b, 0, 16)
        space.free(a)
        cache.load(b, 0, 16)
        assert counters(cache) == (2, 4, 0)
