"""Miss Status Holding Registers.

An MSHR file bounds the number of outstanding line fills per cache and
coalesces repeated misses to the same line onto one fill — both effects the
paper identifies as limiting the baseline's memory-level parallelism
(Section 2.2).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.common.stats import Stats
from repro.common.types import DRAMRequest


@dataclass(slots=True)
class MSHREntry:
    """One outstanding line fill (slotted: the batched walk builds one per
    miss)."""

    line_addr: int
    allocated_at: int
    request: DRAMRequest | None = None   # None when filled from a lower cache
    ready: int = -1                      # known completion, if already resolved
    waiters: int = 0
    #: Allocated by a prefetch fill rather than a demand miss.  The first
    #: demand that touches the line adjudicates the race (see ``lookup``):
    #: a timely fill is a plain hit, an in-flight fill is *one* miss.
    prefetch: bool = False

    @property
    def resolved(self) -> bool:
        """The fill has completed (or its completion time is known)."""
        return self.ready >= 0 or (self.request is not None
                                   and self.request.finish >= 0)


class MSHRFile:
    """Bounded set of outstanding misses with same-line coalescing."""

    def __init__(self, capacity: int, stats: Stats | None = None,
                 name: str = "mshr") -> None:
        if capacity <= 0:
            raise ValueError("MSHR capacity must be positive")
        self.capacity = capacity
        self.name = name
        self.stats = stats if stats is not None else Stats()
        # Observability bus; None (one branch on allocate) unless attached.
        self.obs: Any = None
        self._entries: OrderedDict[int, MSHREntry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def lookup(self, line_addr: int, now: int = -1) -> MSHREntry | None:
        """Return the outstanding entry for ``line_addr``, if any.

        Entries are released *lazily*: a resolved entry (fill completed)
        encountered here is dropped and reported absent, exactly as if it
        had been pruned eagerly at the start of the access.

        Prefetch entries are the exception: their fill was speculative, so
        a resolved entry is released only when the fill landed at or before
        ``now`` (the demand's arrival) — a *timely* prefetch the demand
        simply hits.  A fill still in flight (or landing after ``now``) is
        returned with ``prefetch`` still set so the caller can charge the
        demand miss the prefetch merely absorbed.
        """
        entry = self._entries.get(line_addr)
        if entry is None:
            return None
        if entry.prefetch:
            ready = entry.ready
            if ready < 0 and entry.request is not None:
                ready = entry.request.finish
            released = 0 <= ready <= now
        else:
            released = entry.resolved
        if released:
            del self._entries[line_addr]
            return None
        entry.waiters += 1
        self.stats.add(f"{self.name}_coalesced")
        return entry

    def allocate(self, line_addr: int, allocated_at: int) -> MSHREntry:
        if self.full:
            raise RuntimeError(f"{self.name} full; release an entry first")
        if line_addr in self._entries:
            raise ValueError(f"line {line_addr:#x} already outstanding")
        entry = MSHREntry(line_addr=line_addr, allocated_at=allocated_at)
        self._entries[line_addr] = entry
        self.stats.add(f"{self.name}_allocations")
        if self.obs is not None:
            self.obs.mshr_occupancy(self.name, allocated_at,
                                    len(self._entries), self.capacity)
        return entry

    def release(self, line_addr: int) -> MSHREntry:
        entry = self._entries.pop(line_addr, None)
        if entry is None:
            raise KeyError(f"line {line_addr:#x} not outstanding")
        return entry

    def release_resolved(self) -> None:
        """Free every entry whose fill has completed.

        The access path relies on :meth:`lookup`'s lazy per-line release
        instead; this wholesale sweep runs only under capacity pressure
        (the hierarchy's ``_stall_for_mshr``) and before external
        prefetch admission, where an exact occupancy count matters.
        """
        for line_addr in [line for line, entry in self._entries.items()
                          if entry.resolved]:
            del self._entries[line_addr]

    def oldest(self) -> MSHREntry:
        """FIFO-oldest entry — the one a full-MSHR stall waits on."""
        if not self._entries:
            raise RuntimeError("MSHR file is empty")
        return next(iter(self._entries.values()))
