"""The batched array-kernel channel engine (the production controller).

:class:`BatchedController` is a drop-in replacement for
:class:`~repro.dram.controller.MemoryController` that trades the scalar
engine's per-request object dispatch for structure-of-arrays state:

* **SoA request columns** — a request's arrival / direction / row /
  dense bank id live in parallel lists indexed by a monotone request id
  (rid).
* **In-order FR-FCFS** — ``buffer`` is the scheduling window itself: a
  list of ``(arrival, rid)`` pairs kept sorted.  Rids are assigned in
  enqueue order and refill is FIFO, so this is the scalar scan's
  first-minimum order, and the oldest request is ``buffer[0]``.  Per-bank
  counts of buffered ``[reads, writes]`` by row, and the total of
  buffered requests that hit their bank's open row, say in O(1) whether
  a scan can find a row hit; refill, take, ACT and every row close keep
  them current.  Without a hit (or past the age cap, or under FCFS) the
  pick is ``buffer[0]``; with one, the pick is the first hit in the
  scan order, preferring the bus's direction.  On DX100 traffic the
  Row Table has already grouped the drain by row, so the pick is the
  oldest request on almost every step.
* **Dense bank state** — per-channel banks are numbered
  ``(rank * bankgroups + bankgroup) * banks_per_group + bank`` and kept in
  one flat list, killing the per-access dict hashing of flat-bank tuples.
* **Pre-decoded enqueue** — callers that decoded a whole tile through
  :meth:`~repro.dram.address.AddressMapper.map_arrays` hand coordinates in
  as ints (:meth:`enqueue_decoded`); nothing on the service path touches a
  ``DRAMCoord``.
* **Column requests** — a DX100 drain enters as columns
  (:meth:`enqueue_lines`, one list extend per column) and its writebacks
  as bare ints (:meth:`enqueue_line`); neither builds a ``DRAMRequest``.
  The caller holds the returned rids and reads each request's finish
  cycle from the finish column (:meth:`finish_of`).  Only requests that
  entered as objects (the LLC/core path) get their fields written back.
* **Flat service kernel** — refill, FR-FCFS take, and command timing run in
  one frame with the JEDEC constants hoisted to locals; bank/bus math is
  inlined from :mod:`repro.dram.bank`.

The engine is *bitwise equivalent* to the scalar oracle: identical pick
order (``(arrival, rid)`` reproduces the linear scan's first-minimum order
— rids are assigned in enqueue order and refill is FIFO), identical command
streams (including refresh, which walks banks in dense order on both
sides), and identical statistics accumulated in the same order with the
same float operations.  ``tests/dram/test_engine_differential.py`` holds
the differential suite; select the oracle with ``DRAMConfig.engine =
"scalar"``.
"""

from __future__ import annotations

from bisect import insort
from collections import deque

import numpy as np

from repro.common.config import DRAMConfig
from repro.common.stats import Stats
from repro.common.types import DRAMCoord, DRAMRequest
from repro.dram.address import AddressMapper
from repro.dram.bank import BankState, ChannelBusState, RankState
from repro.dram.scheduler import AGE_CAP

#: Reclaim SoA storage once the retired tail exceeds this many slots (only
#: at quiescent points, where no rid can still be referenced).
_RESET_THRESHOLD = 1 << 16


class _SchedulerHandle:
    """Stand-in scheduler object for the batched engine's compat surface.

    The engine schedules inline, but the observability layer attaches a
    starvation probe via ``controller.scheduler.obs`` (see
    :meth:`repro.obs.events.EventBus.attach`) — this is that attach point.
    """

    __slots__ = ("obs",)

    def __init__(self) -> None:
        self.obs = None


class BatchedController:
    """Batched timing model of a single DDR4 channel.

    External surface (time, stats, observers, ``banks``, ``buffer``,
    enqueue/service/drain) mirrors :class:`MemoryController`; see the
    module docstring for what differs inside.
    """

    def __init__(self, channel: int, config: DRAMConfig,
                 mapper: AddressMapper) -> None:
        self.channel = channel
        self.config = config
        self.timing = config.timing
        self.mapper = mapper
        self.scheduler = _SchedulerHandle()
        self._fcfs = config.scheduler == "fcfs"
        self._closed_page = config.page_policy == "closed"

        # Dense bank/rank state.  bank_id = (rank*BG + bg)*BPG + bank.
        self._bankgroups = config.bankgroups
        self._banks_per_group = config.banks_per_group
        self._banks_per_rank = config.bankgroups * config.banks_per_group
        n_banks = config.ranks * self._banks_per_rank
        self._bank_list = [BankState() for _ in range(n_banks)]
        self._rank_list = [RankState() for _ in range(config.ranks)]
        self._fb: list[tuple[int, int, int, int]] = []
        self.banks: dict[tuple, BankState] = {}
        for bid in range(n_banks):
            rank, rem = divmod(bid, self._banks_per_rank)
            bg, bank = divmod(rem, self._banks_per_group)
            fb = (channel, rank, bg, bank)
            self._fb.append(fb)
            self.banks[fb] = self._bank_list[bid]
        self.ranks: dict[int, RankState] = dict(enumerate(self._rank_list))
        if config.refresh:
            for rank_state in self._rank_list:
                rank_state.next_ref = self.timing.tREFI
            self._next_ref = self.timing.tREFI
        else:
            self._next_ref = 1 << 62
        self.bus = ChannelBusState()

        # SoA request storage, indexed by rid (monotone per enqueue).
        self._arr: list[int] = []       # arrival cycle
        self._w: list[bool] = []        # is_write
        self._row: list[int] = []
        self._bg: list[int] = []
        self._bid: list[int] = []       # dense bank id
        self._far = bytearray()         # crosses the far-memory link
        self._tenant: list[int] = []
        # -1 until serviced; only requests that entered without an object
        # get their finish cycle here.
        self._finish: list[int] = []
        # The request's DRAMRequest when it entered as one (cleared on
        # retire), else None.
        self._req: list = []
        # Set while a caller holds rids from enqueue_lines: storage is not
        # reclaimed until release().
        self._held = False
        self.input_queue: deque[int] = deque()
        # The scheduling window: (arrival, rid) pairs in pick order.
        self.buffer: list[tuple[int, int]] = []
        # bank_id -> row -> [buffered reads, buffered writes]; only rows
        # with buffered requests.
        self._rows: list[dict[int, list[int]]] = [{} for _ in range(n_banks)]
        # Buffered [reads, writes] whose row is their bank's open row.
        self._hits = [0, 0]

        self.time = 0
        self.stats = Stats()
        self._last_occ_time = 0
        self._buffer_cap = config.request_buffer
        self._line_bytes = config.line_bytes
        # JEDEC constants as plain instance ints, hoisted to locals by the
        # service kernel (the frozen-dataclass reads added up).
        t = self.timing
        self._tRP = t.tRP
        self._tRCD = t.tRCD
        self._tRAS = t.tRAS
        self._tRC = t.tRC
        self._tRTP = t.tRTP
        self._tWR = t.tWR
        self._tCL = t.tCL
        self._tCWL = t.tCWL
        self._tBL = t.tBL
        self._tCCD_S = t.tCCD_S
        self._tCCD_L = t.tCCD_L
        self._tRRD_S = t.tRRD_S
        self._tRRD_L = t.tRRD_L
        self._tFAW = t.tFAW
        self.command_observers: list = []
        # Far-memory link (:class:`repro.dram.remote.RemoteLink`), shared
        # across channels; assigned by :class:`~repro.dram.system.DRAMSystem`
        # when the remote tier is enabled.  None = all addresses are local.
        self.remote = None

    # ------------------------------------------------------------- producers

    def enqueue(self, req: DRAMRequest) -> None:
        """Accept a request; decode via the (memoized) scalar map."""
        coord = self.mapper.map(req.addr)
        self.enqueue_coord(req, coord)

    def enqueue_coord(self, req: DRAMRequest, coord: DRAMCoord) -> None:
        if coord.channel != self.channel:
            raise ValueError(
                f"request for channel {coord.channel} routed to {self.channel}"
            )
        self._push(req, req.arrival, req.is_write, coord.rank,
                   coord.bankgroup, coord.bank, coord.row, req.far,
                   req.tenant)

    def enqueue_decoded(self, req: DRAMRequest, rank: int, bankgroup: int,
                        bank: int, row: int) -> None:
        """Accept a request with pre-decoded coordinates (batch decode)."""
        self._push(req, req.arrival, req.is_write, rank, bankgroup, bank,
                   row, req.far, req.tenant)

    def enqueue_line(self, addr: int, arrival: int, is_write: bool,
                     rank: int, bankgroup: int, bank: int, row: int,
                     far: bool = False, tenant: int = -1) -> None:
        """Accept one request given as bare fields (a DX100 writeback);
        no ``DRAMRequest`` is built."""
        self._push(None, arrival, is_write, rank, bankgroup, bank, row, far,
                   tenant)

    def _push(self, req: DRAMRequest | None, arrival: int, is_write: bool,
              rank: int, bankgroup: int, bank: int, row: int, far: bool,
              tenant: int) -> None:
        """Append one request to the columns.  ``req``, when given, is
        the object the service writes its results back to."""
        arr = self._arr
        if (not self.buffer and not self.input_queue
                and len(arr) > _RESET_THRESHOLD and not self._held):
            self._reset_storage()
        self.input_queue.append(len(arr))
        arr.append(arrival)
        self._w.append(is_write)
        self._row.append(row)
        self._bg.append(bankgroup)
        self._bid.append((rank * self._bankgroups + bankgroup)
                         * self._banks_per_group + bank)
        self._far.append(far)
        self._tenant.append(tenant)
        self._finish.append(-1)
        self._req.append(req)
        counters = self.stats.counters
        counters["requests"] += 1
        counters["writes" if is_write else "reads"] += 1

    def enqueue_lines(self, lines: np.ndarray, arrivals: np.ndarray,
                      ranks: np.ndarray, bankgroups: np.ndarray,
                      banks: np.ndarray, rows: np.ndarray,
                      far: np.ndarray | None, tenant: int) -> int:
        """Accept a run of line reads as columns, in order; returns the
        first rid (the run's rids are consecutive).  The rids stay valid
        for :meth:`finish_of` until :meth:`release`."""
        arr = self._arr
        if (not self.buffer and not self.input_queue
                and len(arr) > _RESET_THRESHOLD and not self._held):
            self._reset_storage()
        self._held = True
        first = len(arr)
        n = len(arrivals)
        arr.extend(arrivals.tolist())
        self._w.extend([False] * n)
        self._row.extend(rows.tolist())
        self._bg.extend(bankgroups.tolist())
        self._bid.extend(((ranks * self._bankgroups + bankgroups)
                          * self._banks_per_group + banks).tolist())
        self._far.extend(bytes(n) if far is None
                         else far.astype(np.uint8).tobytes())
        self._tenant.extend([tenant] * n)
        self._finish.extend([-1] * n)
        self._req.extend([None] * n)
        self.input_queue.extend(range(first, first + n))
        counters = self.stats.counters
        counters["requests"] += n
        counters["reads"] += n
        return first

    def finish_of(self, rid: int) -> int:
        """Service this channel until request ``rid`` finishes; returns
        its finish cycle."""
        finish = self._finish
        while finish[rid] < 0:
            if self.service_one() is None:
                raise RuntimeError("request never enqueued on this channel")
        return finish[rid]

    def release(self) -> None:
        """Drop the hold :meth:`enqueue_lines` put on the rids it handed
        out, letting storage be reclaimed at the next quiescent point."""
        self._held = False

    def _reset_storage(self) -> None:
        """Reclaim SoA slots at a quiescent point (nothing in flight).

        Rid relative order is preserved for all future requests, so the
        ``(arrival, rid)`` tie-break stays equivalent to the oracle's
        monotone ``seq`` (ties are only ever compared among co-buffered
        requests).  The buffer and the row counts are already empty here.
        """
        del self._arr[:]
        del self._w[:]
        del self._row[:]
        del self._bg[:]
        del self._bid[:]
        del self._far[:]
        del self._tenant[:]
        del self._finish[:]
        del self._req[:]

    def next_event(self) -> int | None:
        """Earliest cycle this channel has schedulable work, or None."""
        if self.buffer:
            return self.time
        if self.input_queue:
            arrival = self._arr[self.input_queue[0]]
            return arrival if arrival > self.time else self.time
        return None

    # ------------------------------------------------------------- scheduling

    def _refill(self, now: int) -> None:
        """Move arrived requests into the scheduling window, oldest first."""
        queue = self.input_queue
        arr = self._arr
        buffer = self.buffer
        room = self._buffer_cap - len(buffer)
        rows = self._row
        bids = self._bid
        writes = self._w
        rows_by_bank = self._rows
        hits = self._hits
        bank_list = self._bank_list
        while queue and room and arr[queue[0]] <= now:
            rid = queue.popleft()
            arrival = arr[rid]
            if buffer and arrival < buffer[-1][0]:
                # Arrivals out of enqueue order (far lines, writebacks).
                insort(buffer, (arrival, rid))
            else:
                buffer.append((arrival, rid))
            room -= 1
            bid = bids[rid]
            row = rows[rid]
            is_write = writes[rid]
            counts = rows_by_bank[bid].get(row)
            if counts is None:
                counts = rows_by_bank[bid][row] = [0, 0]
            counts[is_write] += 1
            if bank_list[bid].open_row == row:
                hits[is_write] += 1

    def _note_occupancy(self, now: int) -> None:
        dt = now - self._last_occ_time
        if dt > 0:
            self.stats.observe("occupancy", len(self.buffer), dt)
            self._last_occ_time = now

    def _take(self, now: int) -> int:
        """Pick and remove the next rid (inline FR-FCFS / FCFS)."""
        buffer = self.buffer
        hits = self._hits
        bids = self._bid
        rows = self._row
        writes = self._w
        bank_list = self._bank_list
        i = 0
        if not self._fcfs:
            if now - buffer[0][0] > AGE_CAP:
                obs = self.scheduler.obs
                if obs is not None:
                    obs.starvation(now)
            elif hits[0] or hits[1]:
                # The first row hit in scan order, in the bus's direction
                # if any buffered hit goes that way.
                want = self.bus.last_was_write
                if hits[want]:
                    for i, (_, rid) in enumerate(buffer):
                        if (writes[rid] == want and
                                bank_list[bids[rid]].open_row == rows[rid]):
                            break
                else:
                    for i, (_, rid) in enumerate(buffer):
                        if bank_list[bids[rid]].open_row == rows[rid]:
                            break
        rid = buffer.pop(i)[1]
        bid = bids[rid]
        row = rows[rid]
        is_write = writes[rid]
        rows_map = self._rows[bid]
        counts = rows_map[row]
        counts[is_write] -= 1
        if not (counts[0] or counts[1]):
            del rows_map[row]
        if bank_list[bid].open_row == row:
            hits[is_write] -= 1
        return rid

    def _close_row(self, bid: int, row: int) -> None:
        """Take a closing row's buffered requests out of the hit counts."""
        counts = self._rows[bid].get(row)
        if counts is not None:
            hits = self._hits
            hits[0] -= counts[0]
            hits[1] -= counts[1]

    # ------------------------------------------------------------- refresh

    def _refresh_catch_up(self, now: int) -> None:
        """Issue every REF whose tREFI point has passed (dense bank walk).

        Mirrors the scalar engine's refresh semantics exactly: close open
        rows at ``max(pre_ready, due)``, REF at the latest of the due
        point, the previous REF's recovery, and every bank's ``act_ready``;
        the schedule stays pinned to multiples of tREFI.
        """
        timing = self.timing
        observers = self.command_observers
        counters = self.stats.counters
        bank_list = self._bank_list
        banks_per_rank = self._banks_per_rank
        for rank_id, rank in enumerate(self._rank_list):
            while rank.next_ref <= now:
                due = rank.next_ref
                t_ref = due if due > rank.ref_done else rank.ref_done
                base = rank_id * banks_per_rank
                for bid in range(base, base + banks_per_rank):
                    bank = bank_list[bid]
                    if bank.open_row is not None:
                        t_pre = bank.pre_ready
                        if due > t_pre:
                            t_pre = due
                        row = bank.open_row
                        bank.precharge(t_pre, timing)
                        self._close_row(bid, row)
                        if observers:
                            fb = self._fb[bid]
                            for obs in observers:
                                obs("PRE", t_pre, fb, row)
                        counters["refresh_row_closes"] += 1
                    if bank.act_ready > t_ref:
                        t_ref = bank.act_ready
                if observers:
                    fb = (self.channel, rank_id, 0, 0)
                    for obs in observers:
                        obs("REF", t_ref, fb, -1)
                counters["refreshes"] += 1
                rank.ref_done = t_ref + timing.tRFC
                rank.next_ref = due + timing.tREFI
        self._next_ref = min(r.next_ref for r in self._rank_list)

    # ------------------------------------------------------------- service

    def service_one(self) -> DRAMRequest | int | None:
        """Schedule and complete one request; returns it (its rid if it
        entered as columns), or None if idle.

        One flat kernel: refill, pick, and the full ACT/PRE/column timing
        advance run in this frame with the JEDEC constants in locals.
        """
        arr = self._arr
        queue = self.input_queue
        now = self.time
        buffer = self.buffer
        if queue and len(buffer) < self._buffer_cap and arr[queue[0]] <= now:
            self._refill(now)
        if not buffer:
            if not queue:
                return None
            # Idle gap: skip ahead to the next arrival.
            self._note_occupancy(now)
            arrival = arr[queue[0]]
            if arrival > now:
                now = arrival
            self.time = now
            self._last_occ_time = now
            self._refill(now)
        rid = self._take(now)

        # ------------------------------------------------- execute (inline)
        stats = self.stats
        counters = stats.counters
        observers = self.command_observers
        arrival = arr[rid]
        earliest = now if now > arrival else arrival
        if earliest >= self._next_ref:
            # Refresh points have passed: catch up before the row-state
            # check — a REF closes every open row in its rank.
            self._refresh_catch_up(earliest)
        bid = self._bid[rid]
        row = self._row[rid]
        bg = self._bg[rid]
        is_write = self._w[rid]
        req = self._req[rid]
        bank = self._bank_list[bid]

        row_hit = bank.open_row == row
        if row_hit:
            counters["row_hits"] += 1
            t_col_min = bank.col_ready
            if earliest > t_col_min:
                t_col_min = earliest
        else:
            rank = self._rank_list[bid // self._banks_per_rank]
            if bank.open_row is not None:
                counters["row_conflicts"] += 1
                t_pre = bank.pre_ready
                if earliest > t_pre:
                    t_pre = earliest
                old_row = bank.open_row
                bank.open_row = None
                t = t_pre + self._tRP
                if t > bank.act_ready:
                    bank.act_ready = t
                self._close_row(bid, old_row)
                if observers:
                    fb = self._fb[bid]
                    for obs in observers:
                        obs("PRE", t_pre, fb, old_row)
            else:
                counters["row_empty"] += 1
            t_act = bank.act_ready
            if earliest > t_act:
                t_act = earliest
            # Inline RankState.earliest_act: tRRD spacing plus the tFAW
            # four-activate window.
            spacing = (self._tRRD_L if bg == rank.last_act_bg
                       else self._tRRD_S)
            rank_ready = rank.last_act + spacing
            times = rank.last_act_times
            if len(times) >= 4:
                faw = times[-4] + self._tFAW
                if faw > rank_ready:
                    rank_ready = faw
            if rank_ready > t_act:
                t_act = rank_ready
            if rank.ref_done > t_act:
                t_act = rank.ref_done
            # Inline BankState.activate.
            bank.open_row = row
            bank.last_act = t_act
            t = t_act + self._tRCD
            if t > bank.col_ready:
                bank.col_ready = t
            t = t_act + self._tRAS
            if t > bank.pre_ready:
                bank.pre_ready = t
            t = t_act + self._tRC
            if t > bank.act_ready:
                bank.act_ready = t
            # Inline RankState.record_act.
            rank.last_act = t_act
            rank.last_act_bg = bg
            times.append(t_act)
            if len(times) > 8:
                del times[:-4]
            counts = self._rows[bid].get(row)
            if counts is not None:
                hits = self._hits
                hits[0] += counts[0]
                hits[1] += counts[1]
            if observers:
                fb = self._fb[bid]
                for obs in observers:
                    obs("ACT", t_act, fb, row)
            t_col_min = bank.col_ready

        # Inline ChannelBusState.earliest_col / record_col.
        bus = self.bus
        spacing = self._tCCD_L if bg == bus.last_col_bg else self._tCCD_S
        t_col = bus.last_col + spacing
        if bus.last_was_write != is_write:
            turn = bus.last_col + self._tCCD_L
            if turn > t_col:
                t_col = turn
        latency = self._tCWL if is_write else self._tCL
        free = bus.data_free - latency
        if free > t_col:
            t_col = free
        if t_col_min > t_col:
            t_col = t_col_min
        bus.last_col = t_col
        bus.last_col_bg = bg
        bus.last_was_write = is_write
        bus.data_free = t_col + latency + self._tBL
        if observers:
            fb = self._fb[bid]
            kind = "WR" if is_write else "RD"
            for obs in observers:
                obs(kind, t_col, fb, row)
        if is_write:
            t = t_col + self._tCWL + self._tBL + self._tWR
            if t > bank.pre_ready:
                bank.pre_ready = t
            finish = t_col + self._tCWL + self._tBL
        else:
            t = t_col + self._tRTP
            if t > bank.pre_ready:
                bank.pre_ready = t
            finish = t_col + self._tCL + self._tBL
        if self._far[rid]:
            # Far-memory tier: route the completion through the shared
            # link's return path (same call site in both engines, so the
            # link state evolves identically — the bitwise guarantee).
            remote = self.remote
            if remote is not None:
                finish = remote.deliver(finish, is_write)
        if req is None:
            self._finish[rid] = finish
        else:
            req.start = t_col
            req.finish = finish
            req.row_hit = row_hit
        if self._closed_page:
            # Auto-precharge (RDA/WRA): close the row as soon as legal.
            t_pre = bank.pre_ready
            bank.open_row = None
            t = t_pre + self._tRP
            if t > bank.act_ready:
                bank.act_ready = t
            self._close_row(bid, row)
            if observers:
                fb = self._fb[bid]
                for obs in observers:
                    obs("PRE", t_pre, fb, row)

        dt = t_col - self._last_occ_time
        if dt > 0:
            # ``stats.observe("occupancy", ...)`` inlined: same float ops,
            # same accumulators.
            stats._wsum["occupancy"] += len(buffer) * dt
            stats._wweight["occupancy"] += dt
            self._last_occ_time = t_col
        if t_col > self.time:
            self.time = t_col
        counters["serviced"] += 1
        counters["bytes"] += self._line_bytes
        tenant = self._tenant[rid]
        if tenant >= 0:
            # Per-tenant accounting, mirroring the scalar oracle exactly.
            counters[f"tenant{tenant}_serviced"] += 1
            counters[f"tenant{tenant}_bytes"] += self._line_bytes
            if row_hit:
                counters[f"tenant{tenant}_row_hits"] += 1
        mins = stats.mins
        cur = mins.get("first_arrival")
        if cur is None or arrival < cur:
            mins["first_arrival"] = arrival
        maxs = stats.maxs
        cur = maxs.get("last_finish")
        if cur is None or finish > cur:
            maxs["last_finish"] = finish
        if req is None:
            return rid
        self._req[rid] = None
        return req

    def service_until_done(self, req: DRAMRequest) -> None:
        while req.finish < 0:
            if self.service_one() is None:
                raise RuntimeError("request never enqueued on this channel")

    def drain(self) -> None:
        while self.service_one() is not None:
            pass

    # ------------------------------------------------------------- metrics

    def mean_occupancy(self) -> float:
        return self.stats.mean("occupancy")
