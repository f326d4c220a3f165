"""Three-level cache hierarchy with MSHR-bounded parallelism.

Private L1/L2 per core, shared LLC, stride prefetchers at L1 and L2, and a
demand-driven DRAM back end.  An access returns an :class:`AccessResult`
whose completion is either known immediately (cache hit) or resolved later
from the owning DRAM request — this two-phase protocol is what lets the
memory controller accumulate a window of outstanding requests to reorder,
rather than being forced to service each miss as it is issued.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.config import SystemConfig
from repro.common.stats import Stats
from repro.common.types import DRAMRequest, HitLevel
from repro.cache.cache import Cache
from repro.cache.mshr import MSHRFile
from repro.cache.prefetcher import StridePrefetcher
from repro.dram.system import DRAMSystem


@dataclass(slots=True)
class AccessResult:
    """Outcome of a hierarchy access.

    ``complete`` is set for hits; for DRAM fills it stays -1 until
    :meth:`resolve` services the controller.  ``issue`` may be later than the
    requested time if an MSHR-full stall delayed the access.
    """

    level: HitLevel
    issue: int
    complete: int = -1
    request: DRAMRequest | None = None
    return_latency: int = 0

    def resolve(self, dram: DRAMSystem) -> int:
        if self.complete < 0:
            request = self.request
            if request.finish < 0:
                dram.complete(request)
            self.complete = request.finish + self.return_latency
        return self.complete


class MemoryHierarchy:
    """L1 -> L2 -> LLC -> DRAM, with per-level MSHRs and prefetchers."""

    def __init__(self, config: SystemConfig, dram: DRAMSystem) -> None:
        self.config = config
        self.dram = dram
        self.stats = Stats()
        self.line = config.llc.line_bytes
        self.l1 = [Cache(config.l1, self.stats) for _ in range(config.cores)]
        self.l2 = [Cache(config.l2, self.stats) for _ in range(config.cores)]
        self.llc = Cache(config.llc, self.stats)
        self.l1_mshr = [MSHRFile(config.l1.mshrs, self.stats, "l1_mshr")
                        for _ in range(config.cores)]
        self.l2_mshr = [MSHRFile(config.l2.mshrs, self.stats, "l2_mshr")
                        for _ in range(config.cores)]
        self.llc_mshr = MSHRFile(config.llc.mshrs, self.stats, "llc_mshr")
        self.l1_pf = [
            StridePrefetcher(config.l1.prefetch_degree,
                             line_bytes=config.l1.line_bytes,
                             stats=self.stats)
            if config.l1.prefetcher else None
            for _ in range(config.cores)
        ]
        self.l2_pf = [
            StridePrefetcher(config.l2.prefetch_degree,
                             line_bytes=config.l2.line_bytes,
                             stats=self.stats)
            if config.l2.prefetcher else None
            for _ in range(config.cores)
        ]
        # DX100 scratchpad windows: cacheable regions backed by the
        # accelerator instead of DRAM (Section 3.6).
        self._spd_regions: list[tuple[int, int, int]] = []  # (lo, hi, latency)
        # Demand-access observers (the DMP engine registers one).
        self.observers: list = []
        # Observability bus (:class:`repro.obs.events.EventBus`); None when
        # observability is off.
        self.obs: Any = None

    def register_spd_region(self, lo: int, hi: int, latency: int) -> None:
        """Declare [lo, hi) as scratchpad-backed with the given fill latency."""
        if hi <= lo:
            raise ValueError("empty scratchpad region")
        self._spd_regions.append((lo, hi, latency))

    def _spd_latency(self, line: int) -> int | None:
        for lo, hi, latency in self._spd_regions:
            if lo <= line < hi:
                return latency
        return None

    # --------------------------------------------------------------- helpers

    def _stall_for_mshr(self, mshr: MSHRFile, t: int) -> int:
        """If the MSHR file is full, wait for its oldest fill to complete.

        Resolved entries are released lazily (see :meth:`MSHRFile.lookup`),
        so a full-looking file may hold finished fills; they are swept
        only when it looks full.  The sweep must not run earlier: it would
        drop in-flight prefetch entries that ``lookup(now=)`` still
        charges as a miss.
        """
        if mshr.full:
            mshr.release_resolved()
            while mshr.full:
                oldest = mshr.oldest()
                if oldest.ready < 0 and oldest.request is not None:
                    oldest.ready = self.dram.complete(oldest.request)
                t = max(t, oldest.ready)
                mshr.release(oldest.line_addr)
                self.stats.add(f"{mshr.name}_stalls")
        return t

    # --------------------------------------------------------------- demand

    def access(self, core: int, addr: int, is_write: bool, t: int,
               pc: int = 0, tag: int = -1,
               prefetch: bool = True) -> AccessResult:
        """A demand access from ``core`` at cycle ``t``."""
        line = self.llc.line_addr(addr)
        self.stats.add("l1_accesses")
        result = self._access_line(core, line, is_write, t)
        prefetcher = self.l1_pf[core]
        if prefetch and prefetcher is not None:
            for pf_line in prefetcher.observe(pc, addr):
                self._prefetch_fill(core, pf_line, result.issue)
        if self.observers:
            for observer in self.observers:
                observer(core, addr, pc, tag, result.issue)
        if self.obs is not None and result.request is not None:
            self.obs.core_miss(core, result.issue)
        return result

    def prefetch_into(self, core: int, line: int, t: int) -> None:
        """Prefetch entry for external engines (DMP).

        Unlike the stride prefetchers' optimistic fills, these prefetches
        pay real latency: the line is fetched through an LLC MSHR entry and
        a DRAM request issued at ``t``; a later demand access coalesces
        onto the fill and waits for its actual completion.  The benefit is
        the head start (the prefetch distance), not a free hit — matching
        DMP's measured ~1.4x average-latency reduction (Section 6.3).
        """
        line = self.llc.line_addr(line)
        if self.llc.lookup(line, update_lru=False):
            return
        self.llc_mshr.release_resolved()
        if line in self.llc_mshr._entries or self.llc_mshr.full:
            self.stats.add("dmp_prefetch_dropped")
            return
        entry = self.llc_mshr.allocate(line, t)
        entry.prefetch = True
        entry.request = self.dram.access(line, is_write=False,
                                         arrival=t + self.config.llc.latency)
        # The tag is installed now (pollution); demand accesses coalesce on
        # the MSHR entry until the fill lands.
        self._fill(self.llc, line, dirty=False, to_dram=True)
        self.stats.add("dmp_prefetch_issued")

    def _access_line(self, core: int, line: int, is_write: bool,
                     t: int) -> AccessResult:
        latency = self.config.l1.latency
        mshr = self.l1_mshr[core]
        pending = mshr.lookup(line)
        if pending is not None:
            return self._pending_result(pending, HitLevel.L1, latency, t)
        l1 = self.l1[core]
        if l1.lookup(line):
            l1.touch(line, is_write)
            self.stats.add("l1_hits")
            return AccessResult(HitLevel.L1, issue=t, complete=t + latency)
        self.stats.add("l1_misses")
        t = self._stall_for_mshr(mshr, t)
        entry = mshr.allocate(line, t)
        self.stats.add("l2_accesses")
        result = self._access_l2(core, line, is_write, t + latency)
        self._fill(l1, line, is_write)
        self._publish(entry, result)
        return result

    def _access_l2(self, core: int, line: int, is_write: bool,
                   t: int) -> AccessResult:
        latency = self.config.l2.latency
        mshr = self.l2_mshr[core]
        pending = mshr.lookup(line)
        if pending is not None:
            return self._pending_result(pending, HitLevel.L2, latency, t)
        l2 = self.l2[core]
        if l2.lookup(line):
            l2.touch(line, is_write)
            self.stats.add("l2_hits")
            return AccessResult(HitLevel.L2, issue=t, complete=t + latency)
        self.stats.add("l2_misses")
        t = self._stall_for_mshr(mshr, t)
        entry = mshr.allocate(line, t)
        self.stats.add("llc_accesses")
        result = self._access_llc(line, is_write, t + latency)
        self._fill(l2, line, is_write)
        self._publish(entry, result)
        prefetcher = self.l2_pf[core]
        if prefetcher is not None:
            # The L2 prefetcher trains on line addresses under PC 0.
            for pf_line in prefetcher.observe(0, line):
                self._prefetch_fill(core, pf_line, t, from_level=2)
        return result

    def _access_llc(self, line: int, is_write: bool, t: int,
                    decoded: tuple | None = None) -> AccessResult:
        latency = self.config.llc.latency
        pending = self.llc_mshr.lookup(line, now=t)
        if pending is not None:
            if pending.prefetch:
                # A demand racing an in-flight prefetch fill: the prefetch
                # absorbed the demand miss, so charge exactly one miss and
                # wait for the *actual* fill (no free hit).
                pending.prefetch = False
                self._llc_miss(t)
            return self._pending_result(pending, HitLevel.LLC, latency, t)
        if self.llc.lookup(line):
            self.llc.touch(line, is_write)
            self.stats.add("llc_hits")
            return AccessResult(HitLevel.LLC, issue=t, complete=t + latency)
        self._llc_miss(t)
        spd_latency = self._spd_latency(line)
        if spd_latency is not None:
            # Scratchpad-backed line: filled by DX100, no DRAM transaction.
            self.stats.add("spd_fills")
            self._fill(self.llc, line, is_write)
            return AccessResult(HitLevel.SPD, issue=t,
                                complete=t + latency + spd_latency)
        t = self._stall_for_mshr(self.llc_mshr, t)
        entry = self.llc_mshr.allocate(line, t)
        entry.request = self.dram.access(line, is_write=False,
                                         arrival=t + latency,
                                         decoded=decoded)
        self._fill(self.llc, line, is_write, to_dram=True)
        return AccessResult(HitLevel.DRAM, issue=t, request=entry.request,
                            return_latency=latency)

    def _llc_miss(self, t: int) -> None:
        self.stats.add("llc_misses")
        if self.obs is not None:
            self.obs.llc_miss(t)

    @staticmethod
    def _publish(entry, result: AccessResult) -> None:
        """Record a lower level's answer on this level's MSHR entry."""
        if result.complete >= 0:
            entry.ready = result.complete
        else:
            entry.request = result.request

    def _pending_result(self, entry, level: HitLevel, latency: int,
                        t: int) -> AccessResult:
        if entry.ready >= 0:
            return AccessResult(level, issue=t,
                                complete=max(entry.ready, t + latency))
        return AccessResult(HitLevel.DRAM, issue=t, request=entry.request,
                            return_latency=latency)

    # --------------------------------------------------------------- fills

    def _fill(self, cache: Cache, line: int, dirty: bool,
              to_dram: bool = False) -> None:
        victim = cache.insert(line, dirty=dirty)
        if victim is not None and victim[1] and to_dram:
            # Dirty LLC eviction: write back to memory (bandwidth only).
            self.dram.access(victim[0], is_write=True,
                             arrival=max(0, self._now_hint()))

    def _now_hint(self) -> int:
        return max((c.time for c in self.dram.controllers), default=0)

    def _prefetch_fill(self, core: int, line: int, t: int,
                       from_level: int = 1) -> None:
        """Bring a prefetched line toward the core (fire and forget)."""
        self.stats.add("prefetch_fills")
        if from_level == 1:
            if self.l1[core].lookup(line, update_lru=False):
                self.stats.add("prefetch_redundant")
                return
            self._fill(self.l1[core], line, dirty=False)
        if self.l2[core].lookup(line, update_lru=False):
            if from_level >= 2:
                self.stats.add("prefetch_redundant")
            return
        self._fill(self.l2[core], line, dirty=False)
        if self.llc.lookup(line, update_lru=False):
            return
        self._fill(self.llc, line, dirty=False, to_dram=True)
        if self._spd_latency(line) is None:
            self.dram.access(line, is_write=False, arrival=t)
            self.stats.add("prefetch_dram")
        else:
            self.stats.add("prefetch_spd")

    # --------------------------------------------------------------- DX100 side

    def llc_access(self, addr: int, is_write: bool, t: int,
                   decoded: tuple | None = None) -> AccessResult:
        """Direct LLC access (DX100's Cache Interface for streaming).

        ``decoded`` is an optional pre-decoded ``(channel, rank, bankgroup,
        bank, row)`` for the line, threaded down to the DRAM enqueue when
        the access misses, so a DX100 unit that already holds the line's
        coordinates does not have them mapped again.
        """
        line = self.llc.line_addr(addr)
        self.stats.add("llc_accesses")
        return self._access_llc(line, is_write, t, decoded)

    def snoop(self, addr: int) -> bool:
        """Directory snoop: is the line cached anywhere? (DX100 H bit)."""
        line = self.llc.line_addr(addr)
        if self.llc.lookup(line, update_lru=False):
            return True
        return any(c.lookup(line, update_lru=False)
                   for c in (*self.l1, *self.l2))

    def invalidate(self, addr: int) -> None:
        """Invalidate a line from every level (DX100 exclusive access)."""
        line = self.llc.line_addr(addr)
        for cache in (*self.l1, *self.l2, self.llc):
            cache.invalidate(line)

    # --------------------------------------------------------------- metrics

    def mpki(self, level: str, kilo_instructions: float) -> float:
        if kilo_instructions <= 0:
            return 0.0
        return self.stats.get(f"{level}_misses") / kilo_instructions
