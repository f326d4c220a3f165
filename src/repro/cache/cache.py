"""A set-associative, write-allocate, LRU cache (tags + dirty bits).

The simulator tracks tag state only; data values flow through NumPy arrays
in the workloads and through the DX100 scratchpad, so caches never hold
payloads.  Timing is attached by :mod:`repro.cache.hierarchy`.

Each set is an ``OrderedDict`` from line index to dirty bit, least
recently used first.  The batched front end
(:mod:`repro.cache.batched`) probes these sets directly; this class is the
readable statement of what each probe means.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.config import CacheConfig
from repro.common.stats import Stats


class Cache:
    """Tag store for one cache level."""

    def __init__(self, config: CacheConfig, stats: Stats | None = None) -> None:
        self.config = config
        self.stats = stats if stats is not None else Stats()
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(config.sets)
        ]
        self._line_shift = config.line_bytes.bit_length() - 1

    def _set(self, addr: int) -> tuple[int, OrderedDict[int, bool]]:
        """The line index of ``addr`` and the set that holds it."""
        line = addr >> self._line_shift
        return line, self._sets[line % len(self._sets)]

    def lookup(self, addr: int, update_lru: bool = True) -> bool:
        """True if the line holding ``addr`` is resident."""
        line, cset = self._set(addr)
        if line not in cset:
            return False
        if update_lru:
            cset.move_to_end(line)
        return True

    def touch(self, addr: int, dirty: bool = False) -> None:
        """Mark an access to a resident line (LRU bump + dirty update)."""
        line, cset = self._set(addr)
        cset.move_to_end(line)
        if dirty:
            cset[line] = True

    def insert(self, addr: int, dirty: bool = False) -> tuple[int, bool] | None:
        """Insert the line for ``addr``; returns (victim_addr, was_dirty) if a
        line was evicted."""
        line, cset = self._set(addr)
        if line in cset:
            self.touch(addr, dirty)
            return None
        victim = None
        if len(cset) >= self.config.ways:
            victim_line, victim_dirty = cset.popitem(last=False)
            victim = (victim_line << self._line_shift, victim_dirty)
            self.stats.add("evictions")
            if victim_dirty:
                self.stats.add("dirty_evictions")
        cset[line] = dirty
        return victim

    def invalidate(self, addr: int) -> bool:
        """Drop the line if present; returns whether it was resident."""
        line, cset = self._set(addr)
        return cset.pop(line, None) is not None

    def line_addr(self, addr: int) -> int:
        return (addr >> self._line_shift) << self._line_shift

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)
