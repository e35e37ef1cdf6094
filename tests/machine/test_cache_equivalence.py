"""The line-tracking cache models against naive per-line references.

``CoherentCache`` and ``WriteThroughNonCoherentCache`` index resident
lines by allocation and walk whichever side of a range is smaller.  The
reference models below keep one flat ``(alloc_id, line)`` container and
visit every line a range covers, which is easy to check by eye; every
observable of the real models (load results, memory and the
hit/miss/invalidation counters) must match them after every step.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import (
    AddressSpace,
    CoherentCache,
    WriteThroughNonCoherentCache,
)


def covered(line_size, offset, n):
    """Every line index that ``[offset, offset + n)`` touches."""
    if n <= 0:
        return range(0)
    return range(offset // line_size, (offset + n - 1) // line_size + 1)


class RefCoherent:
    def __init__(self, space, line_size):
        self.space, self.line_size = space, line_size
        self.present = set()
        self.hits = self.misses = self.invalidations = 0

    def load(self, alloc, offset, n):
        self._touch(alloc, offset, n)
        return self.space.read(alloc, offset, n)

    def store(self, alloc, offset, data):
        self._touch(alloc, offset, len(data))
        self.space.write(alloc, offset, data)

    def remote_write(self, alloc, offset, data):
        self.invalidate_range(alloc, offset, len(data))
        self.space.write(alloc, offset, data)

    def fence(self):
        self.present.clear()

    def invalidate_range(self, alloc, offset, n):
        for line in covered(self.line_size, offset, n):
            if (alloc.alloc_id, line) in self.present:
                self.present.remove((alloc.alloc_id, line))
                self.invalidations += 1

    def _touch(self, alloc, offset, n):
        for line in covered(self.line_size, offset, n):
            if (alloc.alloc_id, line) in self.present:
                self.hits += 1
            else:
                self.misses += 1
                self.present.add((alloc.alloc_id, line))


class RefNonCoherent:
    def __init__(self, space, line_size):
        self.space, self.line_size = space, line_size
        self.snapshots = {}
        self.hits = self.misses = self.invalidations = 0

    def _snapshot(self, alloc, line):
        start = line * self.line_size
        return self.space.buffer(alloc)[start : start + self.line_size].copy()

    def load(self, alloc, offset, n):
        for line in covered(self.line_size, offset, n):
            if (alloc.alloc_id, line) in self.snapshots:
                self.hits += 1
            else:
                self.misses += 1
                self.snapshots[alloc.alloc_id, line] = self._snapshot(alloc, line)
        out = []
        for i in range(offset, offset + n):
            line, pos = divmod(i, self.line_size)
            out.append(self.snapshots[alloc.alloc_id, line][pos])
        return np.array(out, dtype=np.uint8)

    def store(self, alloc, offset, data):
        self.space.write(alloc, offset, data)
        for line in covered(self.line_size, offset, len(data)):
            if (alloc.alloc_id, line) in self.snapshots:
                self.snapshots[alloc.alloc_id, line] = self._snapshot(alloc, line)

    def remote_write(self, alloc, offset, data):
        self.space.write(alloc, offset, data)

    def fence(self):
        self.invalidations += len(self.snapshots)
        self.snapshots.clear()

    def invalidate_range(self, alloc, offset, n):
        for line in covered(self.line_size, offset, n):
            if self.snapshots.pop((alloc.alloc_id, line), None) is not None:
                self.invalidations += 1


PAIRS = [(CoherentCache, RefCoherent),
         (WriteThroughNonCoherentCache, RefNonCoherent)]
KINDS = ["load", "store", "remote_write", "invalidate_range", "fence"]


def counters(cache):
    return cache.hits, cache.misses, cache.invalidations


@pytest.mark.parametrize("model,ref_model", PAIRS,
                         ids=["coherent", "noncoherent"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matches_per_line_reference(model, ref_model, data):
    line_size = data.draw(st.sampled_from([1, 8, 64]), label="line_size")
    sizes = data.draw(
        st.lists(st.integers(1, 200), min_size=2, max_size=3), label="sizes"
    )
    space, ref_space = AddressSpace(0), AddressSpace(0)
    cache, ref = model(space, line_size), ref_model(ref_space, line_size)
    allocs = [(space.alloc(s), ref_space.alloc(s)) for s in sizes]

    n_steps = data.draw(st.integers(1, 40), label="n_steps")
    for _ in range(n_steps):
        kind = data.draw(st.sampled_from(KINDS))
        if kind == "fence":
            cache.fence()
            ref.fence()
        else:
            i = data.draw(st.integers(0, len(allocs) - 1))
            alloc, ref_alloc = allocs[i]
            offset = data.draw(st.integers(0, alloc.size))
            n = data.draw(st.integers(0, alloc.size - offset))
            if kind in ("load", "invalidate_range"):
                got = getattr(cache, kind)(alloc, offset, n)
                want = getattr(ref, kind)(ref_alloc, offset, n)
                if kind == "load":
                    assert got.tolist() == want.tolist()
            else:
                value = data.draw(st.integers(0, 255))
                payload = np.full(n, value, dtype=np.uint8)
                getattr(cache, kind)(alloc, offset, payload)
                getattr(ref, kind)(ref_alloc, offset, payload)
        assert counters(cache) == counters(ref)
        for alloc, ref_alloc in allocs:
            assert (space.buffer(alloc).tolist()
                    == ref_space.buffer(ref_alloc).tolist())


@pytest.mark.parametrize("model", [CoherentCache, WriteThroughNonCoherentCache])
class TestResidentLineCost:
    def test_huge_range_walks_only_resident_lines(self, model):
        space = AddressSpace(0)
        cache = model(space, line_size=64)
        a = space.alloc(1024)
        for offset in (0, 64, 640):  # lines 0, 1 and 10
            cache.load(a, offset, 1)
        t0 = time.perf_counter()
        # About 2**32 bytes: 6.7e7 lines, of which two are resident.
        cache.invalidate_range(a, 64, 2 ** 32)
        elapsed = time.perf_counter() - t0
        assert cache.invalidations == 2
        assert elapsed < 0.5
        cache.invalidate_range(a, 0, 1)
        assert cache.invalidations == 3

    def test_huge_range_with_nothing_resident(self, model):
        space = AddressSpace(0)
        cache = model(space, line_size=64)
        a, b = space.alloc(64), space.alloc(64)
        cache.load(b, 0, 64)  # resident lines elsewhere do not count
        t0 = time.perf_counter()
        cache.invalidate_range(a, 0, 2 ** 32)
        assert time.perf_counter() - t0 < 0.5
        assert cache.invalidations == 0


class TestZeroLengthTouchesNothing:
    def by(self, vals):
        return np.array(vals, dtype=np.uint8)

    def test_empty_store_is_not_a_fence(self):
        space = AddressSpace(0)
        cache = WriteThroughNonCoherentCache(space, line_size=8)
        a = space.alloc(64)
        cache.load(a, 0, 4)
        cache.remote_write(a, 0, self.by([7] * 4))
        cache.store(a, 2, self.by([]))
        assert cache.load(a, 0, 4).tolist() == [0, 0, 0, 0]  # still stale

    def test_empty_invalidation_is_not_a_fence(self):
        space = AddressSpace(0)
        cache = WriteThroughNonCoherentCache(space, line_size=8)
        a = space.alloc(64)
        cache.load(a, 0, 4)
        cache.remote_write(a, 0, self.by([7] * 4))
        cache.invalidate_range(a, 0, 0)
        assert cache.invalidations == 0
        assert cache.load(a, 0, 4).tolist() == [0, 0, 0, 0]  # still stale

    @pytest.mark.parametrize("model",
                             [CoherentCache, WriteThroughNonCoherentCache])
    def test_empty_accesses_leave_counters_alone(self, model):
        space = AddressSpace(0)
        cache = model(space, line_size=8)
        a = space.alloc(64)
        cache.load(a, 8, 8)
        assert cache.load(a, 3, 0).tolist() == []
        cache.store(a, 3, self.by([]))
        cache.remote_write(a, 8, self.by([]))
        cache.invalidate_range(a, 8, 0)
        assert counters(cache) == (0, 1, 0)
        cache.load(a, 0, 1)  # line 0 was never touched: a miss
        cache.load(a, 8, 1)  # line 1 is still resident: a hit
        assert counters(cache) == (1, 2, 0)
