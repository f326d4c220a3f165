"""A set-associative, write-allocate, LRU cache (tags + dirty bits).

The simulator tracks tag state only; data values flow through NumPy arrays
in the workloads and through the DX100 scratchpad, so caches never hold
payloads.  Timing is attached by :mod:`repro.cache.hierarchy`.

The tag-store operations are on the per-access hot path of every simulated
memory reference (three levels per miss), so the set/line arithmetic is
inlined into each method rather than factored through a helper that would
allocate a tuple per call.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.config import CacheConfig
from repro.common.stats import Stats


class Cache:
    """Tag store for one cache level."""

    __slots__ = ("config", "stats", "_sets", "_line_shift", "_num_sets",
                 "_ways")

    def __init__(self, config: CacheConfig, stats: Stats | None = None) -> None:
        self.config = config
        self.stats = stats if stats is not None else Stats()
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(config.sets)
        ]
        self._line_shift = config.line_bytes.bit_length() - 1
        self._num_sets = config.sets
        self._ways = config.ways

    def lookup(self, addr: int, update_lru: bool = True) -> bool:
        """True if the line holding ``addr`` is resident."""
        line = addr >> self._line_shift
        cset = self._sets[line % self._num_sets]
        if line in cset:
            if update_lru:
                cset.move_to_end(line)
            return True
        return False

    def hit(self, addr: int, dirty: bool = False) -> bool:
        """Combined lookup + touch: one set probe for the hit fast path.

        Equivalent to ``lookup(addr) and touch(addr, dirty)`` but with a
        single line/set computation — the common case of every access at
        every level, so the hierarchy walk calls this instead of the pair.
        """
        line = addr >> self._line_shift
        cset = self._sets[line % self._num_sets]
        if line not in cset:
            return False
        cset.move_to_end(line)
        if dirty:
            cset[line] = True
        return True

    def touch(self, addr: int, dirty: bool = False) -> None:
        """Mark an access to a resident line (LRU bump + dirty update)."""
        line = addr >> self._line_shift
        cset = self._sets[line % self._num_sets]
        cset.move_to_end(line)
        if dirty:
            cset[line] = True

    def insert(self, addr: int, dirty: bool = False) -> tuple[int, bool] | None:
        """Insert the line for ``addr``; returns (victim_addr, was_dirty) if a
        line was evicted."""
        line = addr >> self._line_shift
        cset = self._sets[line % self._num_sets]
        if line in cset:
            cset.move_to_end(line)
            if dirty:
                cset[line] = True
            return None
        victim = None
        if len(cset) >= self._ways:
            victim_line, victim_dirty = cset.popitem(last=False)
            victim = (victim_line << self._line_shift, victim_dirty)
            counters = self.stats.counters
            counters["evictions"] += 1
            if victim_dirty:
                counters["dirty_evictions"] += 1
        cset[line] = dirty
        return victim

    def invalidate(self, addr: int) -> bool:
        """Drop the line if present; returns whether it was resident."""
        line = addr >> self._line_shift
        cset = self._sets[line % self._num_sets]
        return cset.pop(line, None) is not None

    def line_addr(self, addr: int) -> int:
        return (addr >> self._line_shift) << self._line_shift

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)
