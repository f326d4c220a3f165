"""One per-channel memory controller.

The controller owns a bounded *request buffer* (32 entries in the paper's
configuration) which is the scheduler's reordering window: only buffered
requests are visible to FR-FCFS.  Requests beyond the buffer wait in an
unbounded input queue, modelling the MSHR-to-controller path.  The
time-weighted occupancy of the visible buffer is the "request buffer
occupancy" metric of Figure 10(c).

Scheduling is demand-driven: producers enqueue requests with arrival
timestamps and later ask the controller to service until a particular
request (or all requests) complete.  Commands for different banks overlap
through per-bank ready times; the channel column/data bus is the global
serialization point, so controller time advances monotonically along column
command issue times.

This is the scalar oracle: every pick is one linear scan of the buffer by
the policy in :mod:`repro.dram.scheduler`, the readable specification the
production :class:`~repro.dram.batched.BatchedController` must match bit
for bit.
"""

from __future__ import annotations

from collections import deque

from repro.common.config import DRAMConfig
from repro.common.stats import Stats
from repro.common.types import DRAMCoord, DRAMRequest
from repro.dram.address import AddressMapper
from repro.dram.bank import BankState, ChannelBusState, RankState
from repro.dram.scheduler import make_scheduler


class MemoryController:
    """Timing model of a single DDR4 channel."""

    def __init__(self, channel: int, config: DRAMConfig,
                 mapper: AddressMapper) -> None:
        self.channel = channel
        self.config = config
        self.timing = config.timing
        self.mapper = mapper
        self.scheduler = make_scheduler(config.scheduler)
        self.banks: dict[tuple, BankState] = {}
        # Ranks are created eagerly: the refresh schedule ticks for every
        # rank from cycle zero, not just ranks that have seen traffic.
        self.ranks: dict[int, RankState] = {
            r: RankState() for r in range(config.ranks)
        }
        # Per-rank all-bank refresh every tREFI (blocking tRFC).  The hot
        # path pays one comparison against the earliest pending REF point.
        if config.refresh:
            for rank in self.ranks.values():
                rank.next_ref = self.timing.tREFI
            self._next_ref = self.timing.tREFI
        else:
            self._next_ref = 1 << 62
        self.bus = ChannelBusState()
        self.buffer: list[tuple[DRAMRequest, DRAMCoord]] = []
        self.input_queue: deque[tuple[DRAMRequest, DRAMCoord]] = deque()
        self.time = 0
        self.stats = Stats()
        self._last_occ_time = 0
        self._buffer_cap = config.request_buffer
        self._line_bytes = config.line_bytes
        # Command-stream observers: each is called as
        # ``obs(kind, cycle, (channel, rank, bankgroup, bank), row)`` at the
        # moment a command's issue cycle is decided.  The legality auditor
        # (:class:`repro.dram.audit.CommandAuditor`), the observability
        # event bus (:class:`repro.obs.events.EventBus` — row-open tracks
        # and the sampled timeline hang off this stream), and any test
        # recorder all attach here.
        self.command_observers: list = []
        # Far-memory link (:class:`repro.dram.remote.RemoteLink`), shared
        # across channels; assigned by :class:`~repro.dram.system.DRAMSystem`
        # when the remote tier is enabled.  None = all addresses are local.
        self.remote = None
        # Requests entered through enqueue_lines, indexed by the tickets it
        # hands out (kept until release()).
        self._tickets: list[DRAMRequest] = []

    # ------------------------------------------------------------- observers

    def _emit(self, kind: str, cycle: int, coord: DRAMCoord) -> None:
        for obs in self.command_observers:
            obs(kind, cycle, coord.flat_bank, coord.row)

    # ------------------------------------------------------------- producers

    def enqueue(self, req: DRAMRequest) -> None:
        """Accept a request; it becomes schedulable once ``time`` reaches its
        arrival and a buffer slot frees up."""
        self.enqueue_coord(req, self.mapper.map(req.addr))

    def enqueue_coord(self, req: DRAMRequest, coord: DRAMCoord) -> None:
        """Accept a request whose address is already decoded (the system
        routes on the decode, so the controller need not re-map)."""
        if coord.channel != self.channel:
            raise ValueError(
                f"request for channel {coord.channel} routed to {self.channel}"
            )
        self.input_queue.append((req, coord))
        counters = self.stats.counters
        counters["requests"] += 1
        counters["writes" if req.is_write else "reads"] += 1

    def enqueue_decoded(self, req: DRAMRequest, rank: int, bankgroup: int,
                        bank: int, row: int) -> None:
        """Pre-decoded enqueue (batch-decode callers).

        The scalar oracle re-derives the coordinate from the address — the
        memoized map shares one ``DRAMCoord`` per line, so this is a dict
        hit — which keeps the oracle independent of callers' decode math.
        """
        self.enqueue_coord(req, self.mapper.map(req.addr))

    def enqueue_line(self, addr: int, arrival: int, is_write: bool,
                     rank: int, bankgroup: int, bank: int, row: int,
                     far: bool = False, tenant: int = -1) -> None:
        """Accept one request given as bare fields (a DX100 writeback),
        re-mapping the line as :meth:`enqueue_decoded` does."""
        req = DRAMRequest(addr, is_write, arrival, self.channel, tenant)
        req.far = far
        self.enqueue_coord(req, self.mapper.map(addr))

    def enqueue_lines(self, lines, arrivals, ranks, bankgroups, banks, rows,
                      far, tenant: int) -> int:
        """Accept a run of line reads given as columns, one request per
        line in order; returns the first ticket (the run's tickets are
        consecutive) for :meth:`finish_of`.  The decoded coordinates are
        ignored: as in :meth:`enqueue_decoded`, the oracle re-maps each
        line itself."""
        first = len(self._tickets)
        far = [False] * len(lines) if far is None else far.tolist()
        for addr, arrival, is_far in zip(lines.tolist(), arrivals.tolist(),
                                         far):
            req = DRAMRequest(addr, False, arrival, self.channel, tenant)
            req.far = is_far
            self.enqueue_coord(req, self.mapper.map(addr))
            self._tickets.append(req)
        return first

    def finish_of(self, ticket: int) -> int:
        """Service this channel until the request behind ``ticket``
        finishes; returns its finish cycle."""
        req = self._tickets[ticket]
        self.service_until_done(req)
        return req.finish

    def release(self) -> None:
        """Forget the requests :meth:`enqueue_lines` handed tickets for."""
        self._tickets.clear()

    def next_event(self) -> int | None:
        """Earliest cycle this channel has schedulable work, or None.

        Buffered requests are serviceable at the controller's current time;
        an empty buffer skips ahead to the head-of-queue arrival.  The
        system-level drain orders channels by this value so cross-channel
        command emission stays roughly in time order.
        """
        if self.buffer:
            return self.time
        if self.input_queue:
            arrival = self.input_queue[0][0].arrival
            return arrival if arrival > self.time else self.time
        return None

    # ------------------------------------------------------------- scheduling

    def _refill(self) -> None:
        """Move arrived requests into free buffer slots, oldest first."""
        queue = self.input_queue
        if not queue:
            return
        buffer = self.buffer
        cap = self._buffer_cap
        now = self.time
        while queue and len(buffer) < cap and queue[0][0].arrival <= now:
            buffer.append(queue.popleft())

    def _note_occupancy(self, now: int) -> None:
        dt = now - self._last_occ_time
        if dt > 0:
            self.stats.observe("occupancy", len(self.buffer), dt)
            self._last_occ_time = now

    def service_one(self) -> DRAMRequest | None:
        """Schedule and complete one request; returns it, or None if idle."""
        self._refill()
        buffer = self.buffer
        if not buffer:
            if not self.input_queue:
                return None
            # Idle gap: jump to the next arrival.
            self._note_occupancy(self.time)
            self.time = max(self.time, self.input_queue[0][0].arrival)
            self._last_occ_time = self.time
            self._refill()
        idx = self.scheduler.pick(buffer, self.banks,
                                  self.bus.last_was_write, self.time)
        req, coord = buffer.pop(idx)
        self._execute(req, coord)
        return req

    def service_until_done(self, req: DRAMRequest) -> None:
        while req.finish < 0:
            if self.service_one() is None:
                raise RuntimeError("request never enqueued on this channel")

    def drain(self) -> None:
        while self.service_one() is not None:
            pass

    # ------------------------------------------------------------- execution

    def _refresh_catch_up(self, now: int) -> None:
        """Issue every REF whose tREFI point has passed, on every rank.

        An all-bank REF first closes any open rows in the rank (emitting the
        PREs), then blocks the whole rank for tRFC; banks touched later see
        the block through ``RankState.ref_done`` in the ACT path.  The
        schedule is fixed at multiples of tREFI — a late REF does not slip
        the next one.
        """
        timing = self.timing
        observers = self.command_observers
        counters = self.stats.counters
        for rank_id, rank in self.ranks.items():
            while rank.next_ref <= now:
                due = rank.next_ref
                t_ref = due if due > rank.ref_done else rank.ref_done
                # Sorted iteration: the PREs closing a rank's open rows are
                # emitted in (rank, bankgroup, bank) order, matching the
                # batched engine's dense bank-id order command for command.
                for fb in sorted(self.banks):
                    if fb[1] != rank_id:
                        continue
                    bank = self.banks[fb]
                    if bank.open_row is not None:
                        t_pre = bank.pre_ready
                        if due > t_pre:
                            t_pre = due
                        row = bank.open_row
                        bank.precharge(t_pre, timing)
                        if observers:
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
        self._next_ref = min(r.next_ref for r in self.ranks.values())

    def _execute(self, req: DRAMRequest, coord: DRAMCoord) -> None:
        timing = self.timing
        counters = self.stats.counters
        observers = self.command_observers
        flat_bank = coord.flat_bank
        bank = self.banks.get(flat_bank)
        if bank is None:
            bank = BankState()
            self.banks[flat_bank] = bank
        earliest = self.time
        if req.arrival > earliest:
            earliest = req.arrival
        if earliest >= self._next_ref:
            # Refresh points have passed: catch up before the row-state
            # check — a REF closes every open row in its rank.
            self._refresh_catch_up(earliest)

        if bank.open_row == coord.row:
            counters["row_hits"] += 1
            req.row_hit = True
            t_col_min = bank.col_ready
            if earliest > t_col_min:
                t_col_min = earliest
        else:
            rank = self.ranks[coord.rank]
            if bank.open_row is not None:
                counters["row_conflicts"] += 1
                t_pre = bank.pre_ready
                if earliest > t_pre:
                    t_pre = earliest
                old_row = bank.open_row
                bank.precharge(t_pre, timing)
                if observers:
                    # A PRE reports the row it closes (as on the refresh
                    # path), not the conflicting requester's row.
                    for obs in observers:
                        obs("PRE", t_pre, flat_bank, old_row)
            else:
                counters["row_empty"] += 1
            t_act = bank.act_ready
            if earliest > t_act:
                t_act = earliest
            rank_ready = rank.earliest_act(coord.bankgroup, timing)
            if rank_ready > t_act:
                t_act = rank_ready
            if rank.ref_done > t_act:
                t_act = rank.ref_done
            bank.activate(coord.row, t_act, timing)
            rank.record_act(coord.bankgroup, t_act)
            if observers:
                self._emit("ACT", t_act, coord)
            t_col_min = bank.col_ready

        bus = self.bus
        t_col = bus.earliest_col(coord.bankgroup, req.is_write, timing)
        if t_col_min > t_col:
            t_col = t_col_min
        bus.record_col(coord.bankgroup, t_col, req.is_write, timing)
        if observers:
            self._emit("WR" if req.is_write else "RD", t_col, coord)
        if req.is_write:
            bank.column_write(t_col, timing)
            req.finish = t_col + timing.tCWL + timing.tBL
        else:
            bank.column_read(t_col, timing)
            req.finish = t_col + timing.tCL + timing.tBL
        req.start = t_col
        if req.far:
            # Far-memory tier: route the completion through the shared
            # link's return path (same call site in both engines, so the
            # link state evolves identically — the bitwise guarantee).
            remote = self.remote
            if remote is not None:
                req.finish = remote.deliver(req.finish, req.is_write)
        if self.config.page_policy == "closed":
            # Auto-precharge (RDA/WRA): close the row as soon as legal.
            # Must follow column_read/column_write so pre_ready reflects
            # the column command's tRTP / tWR recovery window.
            t_pre = bank.pre_ready
            bank.precharge(t_pre, timing)
            if observers:
                self._emit("PRE", t_pre, coord)

        self._note_occupancy(t_col)
        if t_col > self.time:
            self.time = t_col
        counters["serviced"] += 1
        counters["bytes"] += self._line_bytes
        tenant = req.tenant
        if tenant >= 0:
            # Per-tenant accounting (co-run).  Tags never alter the
            # schedule above, only these counters.
            counters[f"tenant{tenant}_serviced"] += 1
            counters[f"tenant{tenant}_bytes"] += self._line_bytes
            if req.row_hit:
                counters[f"tenant{tenant}_row_hits"] += 1
        stats = self.stats
        mins = stats.mins
        cur = mins.get("first_arrival")
        if cur is None or req.arrival < cur:
            mins["first_arrival"] = req.arrival
        maxs = stats.maxs
        cur = maxs.get("last_finish")
        if cur is None or req.finish > cur:
            maxs["last_finish"] = req.finish

    # ------------------------------------------------------------- metrics

    def mean_occupancy(self) -> float:
        return self.stats.mean("occupancy")
