"""Limited-window out-of-order core timing model.

The model is the trace-driven analogue of the paper's gem5 O3 configuration
(8-wide, ROB 224, LQ 72, SQ 56).  It reproduces the *structural* behaviour
the paper attributes the baseline's poor bandwidth to (Section 2.2):

* the frontend feeds at most ``width`` instructions per cycle, so address
  arithmetic consumes fetch slots;
* an op cannot issue before the ops its address depends on complete
  (the index-load -> indirect-load chain);
* ROB / LQ / SQ occupancy bounds in-flight memory ops, and the in-order
  retire of the ROB head blocks the window behind a long miss;
* atomic RMWs serialize per core: each waits for the previous atomic's
  completion plus a fence cost (line locking + store-buffer drain).

Completion times are resolved lazily from the cache hierarchy so that
independent misses pile up inside the memory controller's request buffer
before being scheduled — the visibility window FR-FCFS reorders within.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.common.config import CoreConfig
from repro.common.stats import Stats
from repro.common.types import AccessType, HitLevel, MemOp
from repro.cache.hierarchy import AccessResult, MemoryHierarchy
from repro.core.trace import KINDS, BlockTrace, Trace, TraceReader
from repro.dram.system import DRAMSystem


class AtomicsArbiter:
    """Per-core serialization of atomic RMW operations.

    x86 atomics lock the target cache line and fence the store buffer.
    Within a core, consecutive atomics to different lines overlap only
    partially (OVERLAP-deep pipelining of the line acquisitions), so each
    atomic delays the next by ``fence + exposed_latency/OVERLAP``.  Cached
    atomics come out ~4-5x slower than plain RMWs (the Free Atomics
    measurement the paper cites); atomics that miss to DRAM expose a
    quarter of the memory latency each — which is why RMW-heavy kernels
    like IS gain so much from DX100's fence-free exclusive-writer
    execution.
    """

    OVERLAP = 4

    def __init__(self, fence_cycles: int) -> None:
        self.fence_cycles = fence_cycles
        self._free_at: dict[int, int] = {}

    def acquire(self, core: int, t: int) -> int:
        """Earliest cycle an atomic presented at ``t`` may issue."""
        free = self._free_at.get(core, 0)
        return free if free > t else t

    def release(self, core: int, issue: int, completion: int) -> None:
        exposed = completion - issue
        exposed = exposed // self.OVERLAP if exposed > 0 else 0
        busy_until = issue + self.fence_cycles + exposed
        if busy_until > self._free_at.get(core, 0):
            self._free_at[core] = busy_until


@dataclass(slots=True)
class _InFlight:
    op: MemOp
    index: int   # the op's position in the trace (its result-column slot)
    result: AccessResult
    instrs: int  # ROB occupancy contribution (op + its extra instructions)
    in_iq: bool = False   # consumers still parked in the issue queue
    iq_instrs: int = 0    # IQ occupancy contribution while unresolved


class CoreModel:
    """Timing model for one core executing one trace.

    Each run's per-op results go into the result columns ``op_issue``,
    ``op_complete`` and ``op_level`` (indexed by op; the first two are
    packed ``array("q")``, -1 until set), which :meth:`start` empties: a
    trace carries no timing, so it can be run again and again.  This
    specification always fills them; the batched core only when its
    ``record_ops`` is set.
    """

    def __init__(self, core_id: int, config: CoreConfig,
                 hierarchy: MemoryHierarchy, dram: DRAMSystem,
                 atomics: AtomicsArbiter | None = None) -> None:
        self.core_id = core_id
        self.config = config
        self.hierarchy = hierarchy
        self.dram = dram
        self.atomics = atomics or AtomicsArbiter(config.atomic_fence_cycles)
        self.stats = Stats()
        # Observability bus; None (one branch on forced retire) when off.
        self.obs: Any = None
        self._window: deque[_InFlight] = deque()
        self._rob_used = 0
        self._iq_used = 0
        self._lq_used = 0
        self._sq_used = 0
        self._fetch_time = 0.0
        self._reader: TraceReader | None = None
        self._peek: MemOp | None = None   # the next op, None at the end
        self._next = 0
        self._finish = 0
        self.op_issue: array[int] = array("q")
        self.op_complete: array[int] = array("q")
        self.op_level: list[HitLevel | None] = []

    # --------------------------------------------------------------- control

    def start(self, trace: Trace | BlockTrace, at: int = 0) -> None:
        self._begin(trace, at)
        self._ops = self._memops()
        self._peek = next(self._ops, None)

    def _begin(self, trace: Trace | BlockTrace, at: int) -> None:
        """Reset the run state to read ``trace`` from cycle ``at``."""
        self._reader = TraceReader(trace)
        self._next = 0
        self._fetch_time = float(at)
        self._finish = at
        self.op_issue = array("q")
        self.op_complete = array("q")
        self.op_level = []

    def _memops(self):
        """The trace's ops in order as :class:`MemOp` views of plain ints,
        producers as op indices of the whole trace."""
        reader = self._reader
        while (cut := reader.next_slice()) is not None:
            for kind, *fields in zip(*cut):
                yield MemOp(KINDS[kind], *fields)

    @property
    def done(self) -> bool:
        return self._peek is None

    @property
    def next_time(self) -> float:
        """Approximate time of the next op's dispatch (for interleaving)."""
        return self._fetch_time

    # --------------------------------------------------------------- helpers

    def _complete(self, flight: _InFlight) -> int:
        done = flight.result.resolve(self.dram)
        self.op_complete[flight.index] = done
        return done

    def _drain_iq(self, now: float) -> None:
        """Free IQ slots whose load completed by wall-clock ``now``."""
        for flight in self._window:
            if flight.in_iq and 0 <= flight.result.complete <= now:
                flight.in_iq = False
                self._iq_used -= flight.iq_instrs

    def _retire_oldest(self, forced: bool = False) -> None:
        flight = self._window.popleft()
        done = self._complete(flight)
        self._rob_used -= flight.instrs
        if flight.in_iq:
            self._iq_used -= flight.iq_instrs
            flight.in_iq = False
        if flight.op.kind is AccessType.LOAD:
            self._lq_used -= 1
        else:
            self._sq_used -= 1
        self._finish = max(self._finish, done)
        if forced:
            # Structural stall: fetch was blocked until the ROB head
            # completed — this head-of-line burstiness is what keeps the
            # baseline's sustained request rate (and the controller's
            # request-buffer occupancy) low (Section 6.2).
            if done > self._fetch_time:
                if self.obs is not None:
                    self.obs.core_span(self.core_id, "rob-blocked",
                                       self._fetch_time, done)
                self._fetch_time = float(done)
        else:
            refill = done - self._rob_used / self.config.width
            self._fetch_time = max(self._fetch_time, refill)

    def _dep_ready(self, op: MemOp) -> int:
        ready = 0
        for dep_idx in op.deps:
            if self.op_complete[dep_idx] < 0:
                # Find it in the window and resolve.
                for flight in self._window:
                    if flight.index == dep_idx:
                        self._complete(flight)
                        break
                else:
                    raise RuntimeError(
                        f"dependence on op {dep_idx} which never executed"
                    )
            ready = max(ready, self.op_complete[dep_idx])
        return ready

    # --------------------------------------------------------------- stepping

    def step(self) -> MemOp:
        """Execute the next memory op of the trace; returns it."""
        op = self._peek
        if op is None:
            raise RuntimeError("trace exhausted")
        self._peek = next(self._ops, None)
        index = self._next
        self._next += 1
        cfg = self.config
        instrs = 1 + op.extra_instrs
        is_load = op.kind is AccessType.LOAD

        # Frontend: fetch/decode bandwidth.
        self._fetch_time += instrs / cfg.width
        dispatch = self._fetch_time

        # Structural stalls: free ROB / LQ / SQ / IQ space by retiring in
        # order.  The IQ is the binding window for indirect kernels: the
        # consumer instructions of every outstanding miss sit unissued in
        # the 50-entry issue queue, so only a few iterations' misses can be
        # in flight at once (the paper's Section 6.2 analysis).
        while self._window and self._rob_used + instrs > cfg.rob_size:
            self.stats.add("rob_stalls")
            self._retire_oldest(forced=True)
        if self._iq_used + instrs > cfg.iq_size:
            # Undrained occupancy over-counts, so drain only under pressure.
            self._drain_iq(self._fetch_time)
            while self._iq_used + instrs > cfg.iq_size:
                # Wait (wall-clock) for the oldest miss holding IQ slots.
                oldest = next((f for f in self._window if f.in_iq), None)
                if oldest is None:
                    break
                self.stats.add("iq_stalls")
                done = self._complete(oldest)
                self._fetch_time = max(self._fetch_time, float(done))
                self._drain_iq(self._fetch_time)
        if is_load:
            while self._window and self._lq_used >= cfg.lq_size:
                self.stats.add("lq_stalls")
                self._retire_oldest(forced=True)
        else:
            while self._window and self._sq_used >= cfg.sq_size:
                self.stats.add("sq_stalls")
                self._retire_oldest(forced=True)
        dispatch = max(dispatch, self._fetch_time)

        # Data dependences: the address is ready when producers complete.
        issue = int(dispatch)
        if op.deps:
            issue = max(issue, self._dep_ready(op))

        if op.atomic:
            issue = self.atomics.acquire(self.core_id, issue)
            self.stats.add("atomics")

        result = self.hierarchy.access(self.core_id, op.addr,
                                       op.kind.is_write, issue, pc=op.pc,
                                       tag=op.tag)
        self.op_issue.append(result.issue)
        self.op_level.append(result.level)
        self.op_complete.append(-1)
        flight = _InFlight(op, index, result, instrs)
        if op.atomic:
            # The line lock / fence delays this core's next atomic.
            self.atomics.release(self.core_id, issue, self._complete(flight))
        elif result.complete >= 0:
            self.op_complete[index] = result.complete
        else:
            # Miss: the op and roughly half its attributed instructions
            # (the value consumers) wait in the issue queue until the line
            # returns; the rest (address generation, control) issued early.
            flight.iq_instrs = 1 + op.extra_instrs // 2
            flight.in_iq = True
            self._iq_used += flight.iq_instrs
        self._window.append(flight)
        self._rob_used += instrs
        if is_load:
            self._lq_used += 1
        else:
            self._sq_used += 1
        self.stats.add("ops")
        self.stats.add("instructions", instrs)
        return op

    def drain(self) -> int:
        """Retire everything outstanding; returns the core's finish cycle."""
        while self._window:
            self._retire_oldest()
        tail = self._reader.tail_instrs if self._reader else 0
        if tail:
            self.stats.add("instructions", tail)
            self._fetch_time += tail / self.config.width
        self._finish = max(self._finish, int(self._fetch_time))
        return self._finish

    def run(self, trace: Trace | BlockTrace, at: int = 0) -> int:
        """Convenience single-core execution: returns the finish cycle."""
        self.start(trace, at)
        while not self.done:
            self.step()
        return self.drain()
