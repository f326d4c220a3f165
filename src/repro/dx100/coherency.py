"""DX100 coherency machinery (Sections 3.6 and 6.6).

Two pieces:

* :class:`CoherencyAgent` — tracks which scratchpad cache lines cores may
  have cached (a V bit per line, set when a core reads the scratchpad) and
  invalidates them from the host hierarchy when an instruction re-targets
  those tiles.
* :class:`RegionCoherence` — the coarse-grained region protocol used when
  multiple DX100 instances share arrays: a Single-Writer-Multiple-Reader
  invariant over whole array address ranges, with a fixed message cost per
  ownership change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.stats import Stats
from repro.common.types import Interval


class CoherencyAgent:
    """Per-line V bits over the scratchpad data region."""

    def __init__(self, line_bytes: int = 64, stats: Stats | None = None) -> None:
        self.line_bytes = line_bytes
        self.stats = stats if stats is not None else Stats()
        self._valid: set[int] = set()

    def core_read(self, addr: int) -> None:
        """A core read of a scratchpad address sets the line's V bit."""
        self._valid.add(addr // self.line_bytes)

    def core_read_range(self, lo: int, hi: int) -> None:
        """Core reads of every line of [lo, hi) set their V bits."""
        self._valid.update(range(lo // self.line_bytes,
                                 -(-hi // self.line_bytes)))

    def invalidate_range(self, lo: int, hi: int, hierarchy=None) -> int:
        """Invalidate all V lines in [lo, hi); returns how many were live.

        Called by the controller when an instruction is dispatched whose
        source/destination tiles cores may have cached.  Probes the
        range's lines or scans the V bits, whichever is fewer.
        """
        first, last = lo // self.line_bytes, -(-hi // self.line_bytes)
        valid = self._valid
        if last - first < len(valid):
            live = [line for line in range(first, last) if line in valid]
        else:
            live = [line for line in valid if first <= line < last]
        valid.difference_update(live)
        if hierarchy is not None:
            # Invalidations commute (each pops one line from every level).
            for line in live:
                hierarchy.invalidate(line * self.line_bytes)
        self.stats.add("spd_invalidations", len(live))
        return len(live)

    @property
    def tracked_lines(self) -> int:
        return len(self._valid)


@dataclass
class _Region:
    interval: Interval
    owner: int | None = None          # instance holding write permission
    readers: set[int] = field(default_factory=set)
    locked: bool = False


class RegionCoherence:
    """SWMR region protocol between DX100 instances (Section 6.6)."""

    def __init__(self, message_cycles: int = 100,
                 stats: Stats | None = None) -> None:
        self.message_cycles = message_cycles
        self.stats = stats if stats is not None else Stats()
        self._regions: list[_Region] = []

    def register(self, interval: Interval) -> int:
        for existing in self._regions:
            if existing.interval.overlaps(interval):
                raise ValueError("coherence regions may not overlap")
        self._regions.append(_Region(interval))
        return len(self._regions) - 1

    def _find(self, addr: int) -> _Region:
        for region in self._regions:
            if region.interval.contains(addr):
                return region
        raise KeyError(f"no coherence region covers {addr:#x}")

    def acquire(self, addr: int, instance: int, write: bool, t: int) -> int:
        """Acquire read or write permission; returns the cycle granted."""
        region = self._find(addr)
        if region.locked and region.owner != instance:
            raise RuntimeError("region locked by another instance")
        if write:
            if region.owner == instance and not region.readers - {instance}:
                return t  # already exclusive
            # Invalidate other readers/owner: one message round.
            cost = self.message_cycles if (region.readers - {instance}
                                           or region.owner not in (None, instance)) else 0
            region.owner = instance
            region.readers = {instance}
            if cost:
                self.stats.add("ownership_transfers")
            return t + cost
        if instance in region.readers:
            return t
        cost = self.message_cycles if region.owner not in (None, instance) else 0
        region.readers.add(instance)
        if region.owner != instance:
            region.owner = None  # downgraded to shared
        return t + cost

    def lock(self, addr: int, instance: int) -> None:
        """Hold the region for the duration of an executing instruction."""
        region = self._find(addr)
        if region.owner != instance:
            raise RuntimeError("must own a region to lock it")
        region.locked = True

    def unlock(self, addr: int, instance: int) -> None:
        region = self._find(addr)
        if region.owner != instance:
            raise RuntimeError("unlock by non-owner")
        region.locked = False
