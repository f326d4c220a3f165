"""Multi-channel DRAM system: routing, draining, and merged metrics."""

from __future__ import annotations

from heapq import heapify, heappop, heappush

import numpy as np

from repro.common.config import CYCLE_NS, DRAMConfig
from repro.common.stats import Stats
from repro.common.types import DRAMRequest
from repro.dram.address import AddressMapper
from repro.dram.audit import CommandAuditor
from repro.dram.batched import BatchedController
from repro.dram.controller import MemoryController
from repro.dram.remote import RemoteLink


class DRAMSystem:
    """All memory channels behind a single enqueue/complete interface.

    ``config.engine`` selects the per-channel engine: ``"batched"`` (the
    structure-of-arrays production engine,
    :class:`~repro.dram.batched.BatchedController`) or ``"scalar"`` (the
    per-request oracle, :class:`~repro.dram.controller.MemoryController`).
    Both produce bitwise-identical command streams and metrics.

    ``config.audit`` attaches one
    :class:`~repro.dram.audit.CommandAuditor` to every channel's command
    stream, checking the full JEDEC constraint set online; see
    :meth:`audit_violations` / :meth:`assert_audit_clean`.
    """

    def __init__(self, config: DRAMConfig | None = None,
                 mapper: AddressMapper | None = None) -> None:
        self.config = config or DRAMConfig()
        self.mapper = mapper or AddressMapper(self.config)
        controller_cls = (BatchedController if self.config.engine == "batched"
                          else MemoryController)
        self.controllers = [
            controller_cls(ch, self.config, self.mapper)
            for ch in range(self.config.channels)
        ]
        # Far-memory tier: one link shared by every channel (one physical
        # port), referenced by each controller for the return traversal.
        self.remote: RemoteLink | None = None
        if self.config.remote.enabled:
            self.remote = RemoteLink(self.config.remote,
                                     self.config.line_bytes)
            for ctrl in self.controllers:
                ctrl.remote = self.remote
        self.auditor: CommandAuditor | None = None
        if self.config.audit:
            self.auditor = CommandAuditor(self.config.timing,
                                          refresh=self.config.refresh)
            for ctrl in self.controllers:
                self.auditor.attach(ctrl)

    # ------------------------------------------------------------- auditing

    def audit_violations(self) -> list:
        """Timing violations recorded so far (empty when not auditing)."""
        return [] if self.auditor is None else self.auditor.violations

    def assert_audit_clean(self) -> None:
        """Raise :class:`~repro.dram.audit.TimingViolationError` if the
        auditor saw any illegal command."""
        if self.auditor is not None:
            self.auditor.assert_clean()

    def enqueue(self, req: DRAMRequest):
        """Route an existing request to its channel (crossing the far
        link first, as :meth:`access` does); returns that controller."""
        remote = self.remote
        if remote is not None and remote.is_far(req.addr):
            req.far = True
            req.arrival = remote.inject(req.arrival, req.is_write)
        coord = self.mapper.map(req.addr)
        req.channel = coord.channel
        ctrl = self.controllers[coord.channel]
        ctrl.enqueue_decoded(req, coord.rank, coord.bankgroup, coord.bank,
                             coord.row)
        return ctrl

    def access(self, addr: int, is_write: bool, arrival: int,
               decoded: tuple | None = None) -> DRAMRequest:
        """Convenience: enqueue a line request and return its record.

        ``decoded`` is an optional pre-decoded ``(channel, rank, bankgroup,
        bank, row)`` tuple — callers that decoded a whole tile through
        :meth:`AddressMapper.map_arrays` pass it to skip the per-line map.
        """
        if decoded is None:
            # ``mapper.map`` inlined, without the column or the DRAMCoord.
            cs, cm, ks, km, gs, gm, bs, bm, rs, rm, _, _ = self.mapper.decode
            channel = (addr >> cs) & cm
            rank, bankgroup = (addr >> ks) & km, (addr >> gs) & gm
            bank, row = (addr >> bs) & bm, (addr >> rs) & rm
        else:
            channel, rank, bankgroup, bank, row = decoded
        req = DRAMRequest(addr, is_write, arrival, channel)
        remote = self.remote
        if remote is not None and remote.is_far(addr):
            req.far = True
            req.arrival = remote.inject(arrival, is_write)
        self.controllers[channel].enqueue_decoded(req, rank, bankgroup,
                                                  bank, row)
        return req

    def post(self, addr: int, is_write: bool, arrival: int) -> None:
        """Enqueue a line request whose completion nothing reads (an LLC
        writeback, a prefetch fill): :meth:`access` without the request
        object, through the channel's int path."""
        cs, cm, ks, km, gs, gm, bs, bm, rs, rm, _, _ = self.mapper.decode
        far = False
        remote = self.remote
        if remote is not None and remote.is_far(addr):
            far = True
            arrival = remote.inject(arrival, is_write)
        self.controllers[(addr >> cs) & cm].enqueue_line(
            addr, arrival, is_write, (addr >> ks) & km, (addr >> gs) & gm,
            (addr >> bs) & bm, (addr >> rs) & rm, far)

    def access_lines(self, lines: np.ndarray, arrivals: np.ndarray,
                     channels: np.ndarray, ranks: np.ndarray,
                     bankgroups: np.ndarray, banks: np.ndarray,
                     rows: np.ndarray) -> list[int]:
        """Enqueue a run of line reads given as aligned int64 columns (a
        DX100 drain, decoded by :meth:`AddressMapper.map_arrays`), with no
        per-line request object.

        Far lines cross the link in the run's order, then the run is split
        by channel and each channel takes its part in one step, in order.
        Returns each line's ticket: ``controllers[channel].finish_of(
        ticket)`` services that channel until the line finishes and
        returns its finish cycle.  Tickets stay valid until
        :meth:`release_lines`.
        """
        far = None
        remote = self.remote
        if remote is not None:
            far = remote.far_mask(lines)
            if far.any():
                arrivals = arrivals.copy()
                inject = remote.inject
                for k in np.flatnonzero(far).tolist():
                    arrivals[k] = inject(int(arrivals[k]), False)
        tickets = np.empty(len(lines), dtype=np.int64)
        for channel, ctrl in enumerate(self.controllers):
            pos = np.flatnonzero(channels == channel)
            if pos.size:
                first = ctrl.enqueue_lines(
                    lines[pos], arrivals[pos], ranks[pos], bankgroups[pos],
                    banks[pos], rows[pos], None if far is None else far[pos])
                tickets[pos] = np.arange(first, first + pos.size)
        return tickets.tolist()

    def write_line(self, addr: int, arrival: int, channel: int, rank: int,
                   bankgroup: int, bank: int, row: int) -> int:
        """Enqueue one pre-decoded line write (a DX100 writeback) with no
        request object; returns its arrival after the far link, if any."""
        far = False
        remote = self.remote
        if remote is not None and remote.is_far(addr):
            far = True
            arrival = remote.inject(arrival, True)
        self.controllers[channel].enqueue_line(
            addr, arrival, True, rank, bankgroup, bank, row, far)
        return arrival

    def release_lines(self) -> None:
        """Invalidate every ticket :meth:`access_lines` handed out."""
        for ctrl in self.controllers:
            ctrl.release()

    def complete(self, req: DRAMRequest) -> int:
        """Service the owning channel until ``req`` finishes; returns that
        cycle."""
        if req.finish < 0:
            self.controllers[req.channel].service_until_done(req)
        return req.finish

    def drain(self) -> None:
        """Service every channel to completion.

        Channels are independent, but the drain advances them through a
        next-event heap — always servicing the channel whose next
        schedulable cycle is earliest, in event batches bounded by the
        runner-up channel's next event — so skipped idle gaps never run a
        channel far ahead and cross-channel command/observer emission stays
        roughly in time order.
        """
        controllers = self.controllers
        if len(controllers) == 1:
            controllers[0].drain()
            return
        heap = []
        for index, ctrl in enumerate(controllers):
            t = ctrl.next_event()
            if t is not None:
                heap.append((t, index))
        heapify(heap)
        while heap:
            _, index = heappop(heap)
            ctrl = controllers[index]
            bound = heap[0][0] if heap else None
            while True:
                if ctrl.service_one() is None:
                    break
                t = ctrl.next_event()
                if t is None:
                    break
                if bound is not None and t > bound:
                    heappush(heap, (t, index))
                    break

    # ------------------------------------------------------------- metrics

    def merged_stats(self) -> Stats:
        stats = Stats()
        for ctrl in self.controllers:
            stats.merge(ctrl.stats)
        if self.remote is not None:
            stats.merge(self.remote.stats)
        return stats

    def row_buffer_hit_rate(self) -> float:
        serviced = sum(c.stats.get("serviced") for c in self.controllers)
        if serviced == 0:
            return 0.0
        hits = sum(c.stats.get("row_hits") for c in self.controllers)
        return hits / serviced

    def mean_occupancy(self) -> float:
        """Mean request-buffer occupancy across channels (Fig. 10c)."""
        vals = [c.mean_occupancy() for c in self.controllers
                if c.stats.get("serviced") > 0]
        if not vals:
            return 0.0
        return sum(vals) / len(vals)

    def total_bytes(self) -> float:
        return sum(c.stats.get("bytes") for c in self.controllers)

    def bandwidth_utilization(self, elapsed_cycles: int) -> float:
        """Achieved fraction of the peak DRAM bandwidth over ``elapsed``."""
        if elapsed_cycles <= 0:
            return 0.0
        seconds = elapsed_cycles * CYCLE_NS * 1e-9
        achieved = self.total_bytes() / seconds / 1e9  # GB/s
        return achieved / self.config.peak_bw_gbps

    def last_finish(self) -> int:
        return int(max(
            (c.stats.get("last_finish") for c in self.controllers), default=0
        ))
