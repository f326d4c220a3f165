"""Batched front-end: the fused cache-hierarchy walk.

This is the cache half of the ``SystemConfig.frontend = "batched"`` engine
split (mirroring :mod:`repro.dram.batched`): the same L1 -> L2 -> LLC walk
as :class:`~repro.cache.hierarchy.MemoryHierarchy`, but with the per-level
``Cache.lookup`` / ``MSHRFile.lookup`` / ``MSHRFile.allocate`` calls fused
into one function body, and a whole-tile :meth:`BatchedHierarchy.access_lines`
path for the DX100 stream units that decodes a tile once through
``AddressMapper.map_arrays`` and hands every miss to the DRAM system
already-decoded.

Bitwise equivalence with the scalar oracle is the contract, and it is what
shapes the design: LRU victim choice, MSHR coalescing/capacity stalls, and
DRAM enqueue order are all order-dependent, so the "batching" here is
call-graph fusion over the *same* tag/MSHR state (OrderedDict sets, entry
dicts) rather than data-parallel classification — the profile shows the
scalar walk's cost is call dispatch spread over ten small functions, not
arithmetic.  The differential suite in ``tests/sim`` replays whole systems
under both front-ends and asserts identical cycles, counters, and DRAM
command streams.
"""

from __future__ import annotations

from collections.abc import Container

from repro.common.config import SystemConfig
from repro.common.types import HitLevel
from repro.cache.hierarchy import AccessResult, MemoryHierarchy
from repro.cache.mshr import MSHREntry, MSHRFile
from repro.cache.prefetcher import _StrideEntry
from repro.dram.system import DRAMSystem

_L1 = HitLevel.L1
_L2 = HitLevel.L2
_LLC = HitLevel.LLC
_SPD = HitLevel.SPD
_DRAM = HitLevel.DRAM


class BatchedHierarchy(MemoryHierarchy):
    """The fused-walk twin of :class:`MemoryHierarchy`.

    Every method here must stay equivalent to the scalar walk it replaces;
    comments mark the scalar method each block mirrors.  The engine owns
    its hoisted state (latencies, counter keys, set geometry), its
    ``_stall_for_mshr`` and its one tag-install helper ``_fill_set``; the
    scalar classes it shares are listed in
    docs/MODEL.md ("Two front-ends, one walk").
    """

    def __init__(self, config: SystemConfig, dram: DRAMSystem) -> None:
        super().__init__(config, dram)
        # All levels share one line size (asserted rather than assumed: the
        # fused walk computes the line index once for all three levels).
        shifts = {self.llc._line_shift}
        shifts.update(c._line_shift for c in (*self.l1, *self.l2))
        if len(shifts) != 1:
            raise ValueError("batched frontend needs one line size "
                             "across all cache levels")
        self._line_shift = self.llc._line_shift
        # Optional PC filter for the observers: when every observer is
        # known to ignore accesses whose PC is not in this container (or
        # whose tag is negative), the walk skips the calls entirely.
        # ``None`` = no such guarantee, call observers always.
        self.observer_pc_filter: Container[int] | None = None
        # Per-access hoists: the walk indexes seven per-core structures on
        # every call, and all of them are identity-stable after construction
        # (tag sets and MSHR entry dicts are mutated in place, never
        # rebound), so one tuple unpack replaces the attribute/index chain.
        self._counters = self.stats.counters
        self._l1_latency = config.l1.latency
        self._l2_latency = config.l2.latency
        self._llc_latency = config.llc.latency
        self._per_core = [
            (self.l1_mshr[c], self.l1_mshr[c]._entries,
             self.l1[c], self.l1[c]._sets, len(self.l1[c]._sets),
             self.l2_mshr[c], self.l2_mshr[c]._entries,
             self.l2[c], self.l2[c]._sets, len(self.l2[c]._sets),
             self.l1_pf[c], self.l2_pf[c],
             config.l1.ways, config.l2.ways)
            for c in range(config.cores)
        ]
        self._llc_sets = self.llc._sets
        self._llc_nsets = len(self.llc._sets)
        self._llc_ways = config.llc.ways
        self._llc_entries = self.llc_mshr._entries
        # L1s then L2s (the snoop's probe order), then the LLC.
        self._all_sets = [(c._sets, len(c._sets))
                          for c in (*self.l1, *self.l2, self.llc)]
        self._core_sets = self._all_sets[:-1]
        # LLC MSHR entries only become releasable when a DRAM request
        # finishes, and both engines bump their controller's "serviced"
        # counter in the same frame that sets ``request.finish``.  Snapshot
        # those counter dicts so ``prefetch_into`` can skip its occupancy
        # sweep when no request completed since the last one (the sweep
        # would provably be a no-op).
        self._ctrl_counters = [c.stats.counters for c in dram.controllers]
        self._llc_sweep_stamp = -1.0

    # ------------------------------------------------------------ MSHR stall

    def _stall_for_mshr(self, mshr: MSHRFile, t: int) -> int:
        """Scalar ``_stall_for_mshr`` past its fullness test, which every
        caller here makes inline on the entry dict: sweep the resolved
        entries, then wait on the oldest fill while the file is full."""
        mshr.release_resolved()
        entries = mshr._entries
        capacity = mshr.capacity
        while len(entries) >= capacity:
            oldest = mshr.oldest()
            if oldest.ready < 0 and oldest.request is not None:
                oldest.ready = self.dram.complete(oldest.request)
            if oldest.ready > t:
                t = oldest.ready
            del entries[oldest.line_addr]
            self._counters[mshr.name + "_stalls"] += 1.0
        return t

    def _fill_set(self, cset, li: int, dirty: bool, ways: int,
                  writeback: bool = False) -> None:
        """``Cache.insert`` of line index ``li``, which the caller's probe
        found missing from ``cset``: evict the LRU line if the set is full,
        then install.  ``writeback`` (the LLC, as the scalar ``_fill(...,
        to_dram=True)``) writes a dirty victim back to memory, bandwidth
        only."""
        if len(cset) >= ways:
            victim, vdirty = cset.popitem(last=False)
            counters = self._counters
            counters["evictions"] += 1
            if vdirty:
                counters["dirty_evictions"] += 1
                if writeback:
                    self.dram.post(victim << self._line_shift, True,
                                   max(0, self._now_hint()))
        cset[li] = dirty

    # ------------------------------------------------------------ demand walk

    def access(self, core: int, addr: int, is_write: bool, t: int,
               pc: int = 0, tag: int = -1,
               prefetch: bool = True) -> tuple:
        """Fused ``access`` + ``_access_line`` + ``_access_l2`` walk.

        Returns ``(level, issue, complete, request, return_latency)`` — the
        fields of the scalar :class:`AccessResult`, as a plain tuple.  The
        batched core folds them straight into its in-flight record, so the
        per-access result object (and its attribute traffic) disappears.
        """
        counters = self._counters
        shift = self._line_shift
        li = addr >> shift
        line = li << shift
        counters["l1_accesses"] += 1
        lat1 = self._l1_latency

        # ---- L1 (mirrors _access_line) ----
        (mshr, entries, l1, l1_sets, l1_nsets,
         mshr2, entries2, l2, l2_sets, l2_nsets,
         prefetcher, prefetcher2, l1_ways, l2_ways) = self._per_core[core]
        entry = entries.get(line)
        if entry is not None:
            if not entry.prefetch and (
                    entry.ready >= 0 or (entry.request is not None
                                         and entry.request.finish >= 0)):
                del entries[line]
                entry = None
            else:
                entry.waiters += 1
                counters["l1_mshr_coalesced"] += 1.0
        if entry is not None:
            # _pending_result(entry, L1)
            if entry.ready >= 0:
                floor = t + lat1
                ready = entry.ready
                result = (_L1, t, ready if ready > floor else floor,
                          None, 0)
            else:
                result = (_DRAM, t, -1, entry.request, lat1)
        else:
            cset = l1_sets[li % l1_nsets]
            if li in cset:
                cset.move_to_end(li)
                if is_write:
                    cset[li] = True
                counters["l1_hits"] += 1
                result = (_L1, t, t + lat1, None, 0)
            else:
                counters["l1_misses"] += 1
                if len(entries) >= mshr.capacity:
                    t = self._stall_for_mshr(mshr, t)
                l1_entry = MSHREntry(line, t)
                entries[line] = l1_entry
                counters["l1_mshr_allocations"] += 1.0
                if mshr.obs is not None:
                    mshr.obs.mshr_occupancy(mshr.name, t, len(entries),
                                            mshr.capacity)

                # ---- L2 (mirrors _access_l2) ----
                t_l2 = t + lat1
                lat2 = self._l2_latency
                counters["l2_accesses"] += 1
                entry2 = entries2.get(line)
                if entry2 is not None:
                    if not entry2.prefetch and (
                            entry2.ready >= 0 or
                            (entry2.request is not None
                             and entry2.request.finish >= 0)):
                        del entries2[line]
                        entry2 = None
                    else:
                        entry2.waiters += 1
                        counters["l2_mshr_coalesced"] += 1.0
                if entry2 is not None:
                    if entry2.ready >= 0:
                        floor = t_l2 + lat2
                        ready = entry2.ready
                        result = (_L2, t_l2,
                                  ready if ready > floor else floor,
                                  None, 0)
                    else:
                        result = (_DRAM, t_l2, -1, entry2.request, lat2)
                else:
                    cset2 = l2_sets[li % l2_nsets]
                    if li in cset2:
                        cset2.move_to_end(li)
                        if is_write:
                            cset2[li] = True
                        counters["l2_hits"] += 1
                        result = (_L2, t_l2, t_l2 + lat2, None, 0)
                    else:
                        counters["l2_misses"] += 1
                        if len(entries2) >= mshr2.capacity:
                            t_l2 = self._stall_for_mshr(mshr2, t_l2)
                        l2_entry = MSHREntry(line, t_l2)
                        entries2[line] = l2_entry
                        counters["l2_mshr_allocations"] += 1.0
                        if mshr2.obs is not None:
                            mshr2.obs.mshr_occupancy(mshr2.name, t_l2,
                                                     len(entries2),
                                                     mshr2.capacity)
                        t_llc = t_l2 + lat2
                        counters["llc_accesses"] += 1
                        result = self._access_llc(line, is_write, t_llc)
                        # The probe above missed and nothing between it
                        # and this fill touches the L2 tag store.
                        self._fill_set(cset2, li, is_write, l2_ways)
                        rc = result[2]
                        if rc >= 0:
                            l2_entry.ready = rc
                        else:
                            l2_entry.request = result[3]
                        # L2 stride prefetcher (trained on line addresses
                        # under PC 0), ``observe`` inlined as above.
                        if prefetcher2 is not None:
                            table2 = prefetcher2._table
                            entry_pf = table2.get(0)
                            if entry_pf is None:
                                if len(table2) >= prefetcher2.table_size:
                                    table2.pop(next(iter(table2)))
                                table2[0] = _StrideEntry(line)
                            else:
                                stride = line - entry_pf.last_addr
                                if stride == entry_pf.stride and stride != 0:
                                    confidence = entry_pf.confidence + 1
                                    if confidence > 3:
                                        confidence = 3
                                    entry_pf.confidence = confidence
                                else:
                                    entry_pf.stride = stride
                                    entry_pf.confidence = confidence = 0
                                entry_pf.last_addr = line
                                if confidence >= 2:
                                    counters["prefetch_trains"] += 1.0
                                    mask = ~(prefetcher2.line_bytes - 1)
                                    issued = 0.0
                                    last_line = -1
                                    for k in range(
                                            1, prefetcher2.degree + 1):
                                        pf_line = (line + k * stride) & mask
                                        if (pf_line != last_line
                                                and pf_line >= 0):
                                            self._prefetch_fill(
                                                core, pf_line, t_l2,
                                                from_level=2)
                                            issued += 1.0
                                            last_line = pf_line
                                    counters["prefetches_issued"] += issued

                # back in _access_line: fill L1, publish the entry.  The
                # L1 probe missed and the L2-level prefetcher only fills
                # L2/LLC.
                self._fill_set(cset, li, is_write, l1_ways)
                rc = result[2]
                if rc >= 0:
                    l1_entry.ready = rc
                else:
                    l1_entry.request = result[3]

        # ---- tail of access() ----
        # L1 stride prefetcher, ``observe`` inlined (it runs per access and
        # usually returns no candidates).
        if prefetch and prefetcher is not None:
            table = prefetcher._table
            entry = table.get(pc)
            if entry is None:
                if len(table) >= prefetcher.table_size:
                    table.pop(next(iter(table)))
                table[pc] = _StrideEntry(addr)
            else:
                stride = addr - entry.last_addr
                if stride == entry.stride and stride != 0:
                    confidence = entry.confidence + 1
                    if confidence > 3:
                        confidence = 3
                    entry.confidence = confidence
                else:
                    entry.stride = stride
                    entry.confidence = confidence = 0
                entry.last_addr = addr
                if confidence >= 2:
                    counters["prefetch_trains"] += 1.0
                    mask = ~(prefetcher.line_bytes - 1)
                    issue = result[1]
                    issued = 0.0
                    last_line = -1
                    for k in range(1, prefetcher.degree + 1):
                        pf_line = (addr + k * stride) & mask
                        if pf_line != last_line and pf_line >= 0:
                            self._prefetch_fill(core, pf_line, issue)
                            issued += 1.0
                            last_line = pf_line
                    counters["prefetches_issued"] += issued
        if self.observers:
            pc_filter = self.observer_pc_filter
            if pc_filter is None or (tag >= 0 and pc in pc_filter):
                for observer in self.observers:
                    observer(core, addr, pc, tag, result[1])
        if self.obs is not None and result[3] is not None:
            self.obs.core_miss(core, result[1])
        return result

    # -------------------------------------------------------------- LLC level

    def _access_llc(self, line: int, is_write: bool, t: int,
                    decoded: tuple | None = None) -> tuple:
        """Fused LLC level: MSHR adjudication + tag probe + miss path.

        Returns the same ``(level, issue, complete, request, return_latency)``
        tuple as :meth:`access`; :meth:`llc_access` wraps it back into an
        :class:`AccessResult` for the DX100 units.
        """
        counters = self._counters
        llc_latency = self._llc_latency
        mshr = self.llc_mshr
        entries = self._llc_entries
        entry = entries.get(line)
        if entry is not None:
            # mirrors MSHRFile.lookup(line, now=t)
            if entry.prefetch:
                ready = entry.ready
                if ready < 0 and entry.request is not None:
                    ready = entry.request.finish
                if 0 <= ready <= t:
                    del entries[line]
                    entry = None
                else:
                    entry.waiters += 1
                    counters["llc_mshr_coalesced"] += 1.0
            elif entry.ready >= 0 or (entry.request is not None
                                      and entry.request.finish >= 0):
                del entries[line]
                entry = None
            else:
                entry.waiters += 1
                counters["llc_mshr_coalesced"] += 1.0
        if entry is not None:
            if entry.prefetch:
                # Demand racing an in-flight prefetch fill: one miss.
                entry.prefetch = False
                counters["llc_misses"] += 1
                if self.obs is not None:
                    self.obs.llc_miss(t)
            if entry.ready >= 0:
                floor = t + llc_latency
                ready = entry.ready
                return (_LLC, t, ready if ready > floor else floor,
                        None, 0)
            return (_DRAM, t, -1, entry.request, llc_latency)
        li = line >> self._line_shift
        cset = self._llc_sets[li % self._llc_nsets]
        if li in cset:
            cset.move_to_end(li)
            if is_write:
                cset[li] = True
            counters["llc_hits"] += 1
            return (_LLC, t, t + llc_latency, None, 0)
        counters["llc_misses"] += 1
        if self.obs is not None:
            self.obs.llc_miss(t)
        if self._spd_regions:
            spd_latency = self._spd_latency(line)
            if spd_latency is not None:
                counters["spd_fills"] += 1
                self._fill_set(cset, li, is_write, self._llc_ways)
                return (_SPD, t, t + llc_latency + spd_latency, None, 0)
        if len(entries) >= mshr.capacity:
            t = self._stall_for_mshr(mshr, t)
        entry = MSHREntry(line, t)
        entries[line] = entry
        counters["llc_mshr_allocations"] += 1.0
        if mshr.obs is not None:
            mshr.obs.mshr_occupancy(mshr.name, t, len(entries),
                                    mshr.capacity)
        req = self.dram.access(line, is_write=False,
                               arrival=t + llc_latency,
                               decoded=decoded)
        entry.request = req
        self._fill_set(cset, li, is_write, self._llc_ways, writeback=True)
        return (_DRAM, t, -1, req, llc_latency)

    def llc_access(self, addr: int, is_write: bool, t: int,
                   decoded: tuple | None = None) -> AccessResult:
        shift = self._line_shift
        self.stats.counters["llc_accesses"] += 1
        level, issue, complete, request, ret_lat = self._access_llc(
            (addr >> shift) << shift, is_write, t, decoded)
        return AccessResult(level, issue, complete, request, ret_lat)

    # ------------------------------------------------------------- prefetches

    def _prefetch_fill(self, core: int, line: int, t: int,
                       from_level: int = 1) -> None:
        """Scalar ``_prefetch_fill`` with the per-level ``lookup``/``_fill``
        pairs inlined into direct set probes (the lines arrive aligned)."""
        counters = self._counters
        counters["prefetch_fills"] += 1.0
        li = line >> self._line_shift
        (_, _, _, l1_sets, l1_nsets, _, _, _, l2_sets, l2_nsets,
         _, _, l1_ways, l2_ways) = self._per_core[core]
        if from_level == 1:
            cset1 = l1_sets[li % l1_nsets]
            if li in cset1:
                counters["prefetch_redundant"] += 1.0
                return
            self._fill_set(cset1, li, False, l1_ways)
        cset2 = l2_sets[li % l2_nsets]
        if li in cset2:
            if from_level >= 2:
                counters["prefetch_redundant"] += 1.0
            return
        self._fill_set(cset2, li, False, l2_ways)
        cset = self._llc_sets[li % self._llc_nsets]
        if li in cset:
            return
        self._fill_set(cset, li, False, self._llc_ways, writeback=True)
        if self._spd_latency(line) is None:
            self.dram.post(line, False, t)
            counters["prefetch_dram"] += 1.0
        else:
            counters["prefetch_spd"] += 1.0

    def prefetch_into(self, core: int, line: int, t: int) -> None:
        """Scalar ``prefetch_into`` (the DMP admission path) fused: one LLC
        set probe, direct MSHR-dict admission, inlined LLC fill."""
        shift = self._line_shift
        li = line >> shift
        line = li << shift
        counters = self._counters
        cset = self._llc_sets[li % self._llc_nsets]
        if li in cset:
            return
        mshr = self.llc_mshr
        # The scalar path sweeps resolved entries on every admission; the
        # sweep can only find work after a DRAM completion, so gate it on
        # the controllers' monotone "serviced" counters.
        stamp = 0.0
        for cc in self._ctrl_counters:
            stamp += cc.get("serviced", 0.0)
        if stamp != self._llc_sweep_stamp:
            mshr.release_resolved()
            self._llc_sweep_stamp = stamp
        entries = self._llc_entries
        if line in entries or len(entries) >= mshr.capacity:
            counters["dmp_prefetch_dropped"] += 1.0
            return
        entry = MSHREntry(line, t)
        entries[line] = entry
        counters["llc_mshr_allocations"] += 1.0
        if mshr.obs is not None:
            mshr.obs.mshr_occupancy(mshr.name, t, len(entries),
                                    mshr.capacity)
        entry.prefetch = True
        entry.request = self.dram.access(line, is_write=False,
                                         arrival=t + self._llc_latency)
        # Tag installed now (pollution), as in the scalar
        # ``_fill(..., to_dram=True)``.
        self._fill_set(cset, li, False, self._llc_ways, writeback=True)
        counters["dmp_prefetch_issued"] += 1.0

    # --------------------------------------------------------------- snooping

    def snoop(self, addr: int) -> bool:
        """Directory snoop as direct set probes, LLC -> L1s -> L2s (same
        short-circuit order as the scalar generator expression)."""
        li = addr >> self._line_shift
        if li in self._llc_sets[li % self._llc_nsets]:
            return True
        for sets, nsets in self._core_sets:
            if li in sets[li % nsets]:
                return True
        return False

    def invalidate(self, addr: int) -> None:
        """Scalar ``invalidate`` as direct set pops: one line index, no
        per-level ``Cache.invalidate`` call (pops commute, so the level
        order does not matter)."""
        li = addr >> self._line_shift
        for sets, nsets in self._all_sets:
            sets[li % nsets].pop(li, None)

    # ----------------------------------------------------------- tile streams

    def access_lines(self, lines, is_write: bool, t_start: int,
                     window: int, rate: int,
                     avail: tuple[int, float] | None = None,
                     elems_per_line: float = 1.0) -> tuple[int, int]:
        """Whole-tile stream issue: the scalar ``StreamUnit._issue_lines``
        loop fused with the LLC walk.

        One ``map_arrays`` call decodes the tile; each line then runs the
        fused LLC level above with its pre-decoded coordinates, under the
        same Request-Table back-pressure recurrence as the scalar unit
        (resolve the fill ``window`` lines back before issuing).  Returns
        ``(first_completion, last_completion)``.
        """
        line_list = lines.tolist() if hasattr(lines, "tolist") else list(lines)
        if not line_list:
            return t_start, t_start
        fields = self.dram.mapper.map_arrays(lines)
        chans = fields["channel"].tolist()
        ranks = fields["rank"].tolist()
        bgs = fields["bankgroup"].tolist()
        banks = fields["bank"].tolist()
        rows = fields["row"].tolist()
        counters = self.stats.counters
        dram = self.dram
        access_llc = self._access_llc
        # Per-line [complete, request, ret_lat] triples; index 0 is
        # memoized in place once a pending fill is resolved.
        results: list[list] = []
        append = results.append
        t = t_start
        if avail is not None:
            avail_t0, avail_rate = avail
        for j, line in enumerate(line_list):
            if j >= window:
                # Request-table back-pressure: wait for an older fill.
                res = results[j - window]
                complete = res[0]
                if complete < 0:
                    request = res[1]
                    if request.finish < 0:
                        dram.complete(request)
                    complete = request.finish + res[2]
                    res[0] = complete
                wait = complete - window
                if wait > t:
                    t = wait
            arrival = t_start + j // rate
            if t > arrival:
                arrival = t
            if avail is not None:
                gated = int(avail_t0 + j * elems_per_line / avail_rate)
                if gated > arrival:
                    arrival = gated
            counters["llc_accesses"] += 1
            _, _, complete, request, ret_lat = access_llc(
                line, is_write, arrival,
                (chans[j], ranks[j], bgs[j], banks[j], rows[j]))
            append([complete, request, ret_lat])
            t += 1
        first = last = -1
        for res in results:
            c = res[0]
            if c < 0:
                request = res[1]
                if request.finish < 0:
                    dram.complete(request)
                c = request.finish + res[2]
                res[0] = c
            if first < 0 or c < first:
                first = c
            if c > last:
                last = c
        return first, last
