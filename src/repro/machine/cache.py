"""Cache models.

The paper's §III-B2 hinges on one architectural fact: on machines like
the NEC SX, the scalar unit reads through a **non-coherent write-through
cache**, so data deposited in memory by a remote put stays invisible to
the target until the target executes a cache/memory fence (or the RMA
runtime does it on the target's behalf).

We model exactly that observable behaviour:

- :class:`CoherentCache` — remote writes invalidate; local reads are
  always fresh (Cray XT-like; also the X1E intra-node case).
- :class:`WriteThroughNonCoherentCache` — local reads come from cached
  line snapshots; local writes update both cache and memory; remote
  writes update memory only, leaving stale lines until :meth:`fence`.
- :class:`NoCache` — vector-unit style direct memory access.

All models operate on (alloc_id, line_index) granularity with a
configurable line size.  The line-tracking models index their resident
lines by allocation, so bookkeeping costs time per *resident* line: a
NIC deposit into an allocation with nothing cached costs O(1), however
many lines it covers.  A zero-length access touches no line.  An access
is bounds-checked before it touches a line or a counter, so a rejected
one leaves the cache as it was.  Freeing an allocation drops its lines
without counting them as invalidations.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, Set, Tuple

import numpy as np

from repro.machine.address_space import AddressSpace, Allocation

__all__ = [
    "CacheModel",
    "CoherentCache",
    "NoCache",
    "WriteThroughNonCoherentCache",
]


class CacheModel:
    """Interface between a rank's loads/stores and its memory.

    Subclasses decide whether reads may observe stale data and what
    remote (RMA) writes do to cached state.  Counters are kept for the
    benches (hit/miss/stale statistics).
    """

    #: Whether this model keeps caches coherent with remote writes.
    coherent: bool = True

    def __init__(self, space: AddressSpace, line_size: int = 64) -> None:
        if line_size < 1:
            raise ValueError("line_size must be >= 1")
        self.space = space
        self.line_size = line_size
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        space.on_free(self._forget)

    def _forget(self, alloc_id: int) -> None:
        """Drop the state of a freed allocation (no invalidation counted)."""

    # -- the three access paths ----------------------------------------
    def load(self, alloc: Allocation, offset: int, n: int) -> np.ndarray:
        """A local CPU read of ``n`` bytes."""
        raise NotImplementedError

    def store(self, alloc: Allocation, offset: int, data: np.ndarray) -> None:
        """A local CPU write."""
        raise NotImplementedError

    def remote_write(
        self, alloc: Allocation, offset: int, data: np.ndarray
    ) -> None:
        """Data deposited by the NIC/RMA engine directly into memory."""
        raise NotImplementedError

    def fence(self) -> None:
        """Memory fence: discard anything that could be stale."""
        raise NotImplementedError

    def invalidate_range(self, alloc: Allocation, offset: int, n: int) -> None:
        """Targeted invalidation (used by RMA notify protocols)."""
        raise NotImplementedError


def _lines_to_visit(
    resident: Collection[int], line_size: int, offset: int, n: int
) -> Iterable[int]:
    """Lines to visit for the range ``[offset, offset + n)`` (``n >= 1``):
    every line it covers, or, when fewer lines are resident than that,
    just the resident lines inside it.  Either way the walk is over the
    smaller side; callers still test each line for residency."""
    first = offset // line_size
    last = (offset + n - 1) // line_size
    if last - first < len(resident):
        return range(first, last + 1)
    return [line for line in resident if first <= line <= last]


class CoherentCache(CacheModel):
    """Fully coherent: loads always observe memory; remote writes are
    immediately visible.  Hit/miss counters still model a line cache for
    statistics."""

    coherent = True

    def __init__(self, space: AddressSpace, line_size: int = 64) -> None:
        super().__init__(space, line_size)
        self._present: Dict[int, Set[int]] = {}  # alloc_id -> lines

    def _forget(self, alloc_id: int) -> None:
        self._present.pop(alloc_id, None)

    def _touch(self, alloc: Allocation, offset: int, n: int) -> None:
        if n <= 0:
            return
        lines = self._present.setdefault(alloc.alloc_id, set())
        first = offset // self.line_size
        last = (offset + n - 1) // self.line_size
        before = len(lines)
        lines.update(range(first, last + 1))
        added = len(lines) - before
        self.misses += added
        self.hits += last - first + 1 - added

    def load(self, alloc: Allocation, offset: int, n: int) -> np.ndarray:
        out = self.space.read(alloc, offset, n)
        self._touch(alloc, offset, n)
        return out

    def store(self, alloc: Allocation, offset: int, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.uint8)
        self.space.write(alloc, offset, data)
        self._touch(alloc, offset, data.size)

    def remote_write(
        self, alloc: Allocation, offset: int, data: np.ndarray
    ) -> None:
        # Coherence protocol invalidates the lines the NIC writes.
        data = np.asarray(data, dtype=np.uint8)
        self.invalidate_range(alloc, offset, data.size)
        self.space.write(alloc, offset, data)

    def fence(self) -> None:
        # Nothing can be stale; fence only drops statistics state.
        self._present.clear()

    def invalidate_range(self, alloc: Allocation, offset: int, n: int) -> None:
        lines = self._present.get(alloc.alloc_id)
        if not lines or n <= 0:
            return
        before = len(lines)
        lines.difference_update(
            _lines_to_visit(lines, self.line_size, offset, n))
        self.invalidations += before - len(lines)


class WriteThroughNonCoherentCache(CacheModel):
    """NEC-SX-style scalar cache.

    Lines are snapshots of memory taken at miss time.  Local stores
    write through (cache + memory).  Remote writes update memory only —
    subsequent local loads of a cached line return the **stale**
    snapshot until :meth:`fence` or a targeted invalidation runs.
    """

    coherent = False

    def __init__(self, space: AddressSpace, line_size: int = 64) -> None:
        super().__init__(space, line_size)
        # alloc_id -> {line: snapshot}
        self._lines: Dict[int, Dict[int, np.ndarray]] = {}

    def _forget(self, alloc_id: int) -> None:
        self._lines.pop(alloc_id, None)

    def _line_bounds(self, buf_size: int, line: int) -> Tuple[int, int]:
        start = line * self.line_size
        return start, min(start + self.line_size, buf_size)

    def load(self, alloc: Allocation, offset: int, n: int) -> np.ndarray:
        buf = self.space.checked_buffer(alloc, offset, n)
        out = np.empty(n, dtype=np.uint8)
        if n <= 0:
            return out
        lines = self._lines.setdefault(alloc.alloc_id, {})
        first = offset // self.line_size
        last = (offset + n - 1) // self.line_size
        for line in range(first, last + 1):
            lstart, lend = self._line_bounds(buf.size, line)
            snapshot = lines.get(line)
            if snapshot is None:
                self.misses += 1
                snapshot = buf[lstart:lend].copy()
                lines[line] = snapshot
            else:
                self.hits += 1
            # Copy the overlap of [offset, offset+n) with this line.
            a = max(offset, lstart)
            b = min(offset + n, lend)
            if b > a:
                out[a - offset : b - offset] = snapshot[a - lstart : b - lstart]
        return out

    def store(self, alloc: Allocation, offset: int, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.uint8)
        self.space.write(alloc, offset, data)
        lines = self._lines.get(alloc.alloc_id)
        if not lines or data.size == 0:
            return
        buf = self.space.buffer(alloc)
        for line in _lines_to_visit(lines, self.line_size, offset, data.size):
            if line in lines:
                # Write-through: refresh the cached snapshot from memory.
                lstart, lend = self._line_bounds(buf.size, line)
                lines[line] = buf[lstart:lend].copy()

    def remote_write(
        self, alloc: Allocation, offset: int, data: np.ndarray
    ) -> None:
        # The NIC DMAs into memory; the scalar cache is not snooped.
        self.space.write(alloc, offset, np.asarray(data, dtype=np.uint8))

    def fence(self) -> None:
        self.invalidations += sum(map(len, self._lines.values()))
        self._lines.clear()

    def invalidate_range(self, alloc: Allocation, offset: int, n: int) -> None:
        lines = self._lines.get(alloc.alloc_id)
        if not lines or n <= 0:
            return
        for line in _lines_to_visit(lines, self.line_size, offset, n):
            if lines.pop(line, None) is not None:
                self.invalidations += 1


class NoCache(CacheModel):
    """Direct memory access (vector unit path on the SX; also useful as
    a null model in unit tests)."""

    coherent = True

    def load(self, alloc: Allocation, offset: int, n: int) -> np.ndarray:
        self.misses += 1
        return self.space.read(alloc, offset, n)

    def store(self, alloc: Allocation, offset: int, data: np.ndarray) -> None:
        self.space.write(alloc, offset, data)

    def remote_write(
        self, alloc: Allocation, offset: int, data: np.ndarray
    ) -> None:
        self.space.write(alloc, offset, np.asarray(data, dtype=np.uint8))

    def fence(self) -> None:
        pass

    def invalidate_range(self, alloc: Allocation, offset: int, n: int) -> None:
        pass
