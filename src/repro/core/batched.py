"""Batched front-end: fused OoO stepping and the event-skip multicore loop.

The core half of the ``SystemConfig.frontend = "batched"`` split.  Two
ideas, both bitwise-neutral by construction:

* :meth:`BatchedCoreModel.stepper` is ``CoreModel.step`` unrolled into a
  resumable loop — the per-op function dispatch (``step`` itself, the
  ``done`` property, the heap push/pop in the multicore driver) disappears,
  but the op-by-op semantics (frontend bandwidth, ROB/IQ/LQ/SQ stalls,
  dependence resolution, atomics serialization) are copied line for line.

* :class:`BatchedMulticore.run` advances the *popped* core until its next
  dispatch time would no longer be the global minimum, instead of
  re-inserting it into the heap after every op.  The scalar driver pops
  ``(next_time, i)``, steps once, pushes, and pops again; whenever the
  same core remains the minimum this is a pointless heap round-trip.  Ties
  between distinct cores are broken by the core index in the tuple, so
  "strictly less than the next heap entry" reproduces the scalar pop
  order exactly — the event-skip is over driver overhead, never over
  simulated work.

The fused loop reads the trace through list slices of about a thousand ops
(:class:`~repro.core.trace.TraceReader`) and builds no per-op record
object.  Ops enter the ROB in trace order and retire in order, so the
window is the index range ``[_head, _next)``, which holds at most
``rob_size`` ops.  Every per-op list the loop reads is slice-aligned, and
each new slice starts at the window's head: when ``_next`` reaches the
slice's end, the window's entries move to the front of the next slice and
everything before ``_head`` is dropped.  So a run holds one slice, never a
whole trace's op lists, whatever the trace's length.

A slice drops the dependences on ops before its first one.  Those
producers had retired before any op of the slice dispatched, and a retired
producer never delays a consumer: only a structural stall retires an op
before the trace ends, and that forced retire raises ``fetch_time`` to the
op's completion, so ``int(dispatch)`` of every later op is at least that
completion.  Completions are therefore needed only for the window; the
per-op result columns ``op_issue``/``op_complete``/``op_level`` are filled
only when :attr:`BatchedCoreModel.record_ops` is set.  An op is
pending while its completion is -1; only then does the core keep its DRAM
request and return latency.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Generator
from contextlib import suppress

from repro.core.multicore import Multicore
from repro.core.ooo import CoreModel
from repro.core.trace import BlockTrace, Trace


def _drain_iq(iq: deque[int], op_complete, extras, now: float,
              iq_used: int) -> int:
    """Scalar ``_drain_iq`` over the IQ residents ``iq`` (op indices in
    window order): drop every op that completed by ``now`` and return the
    remaining occupancy.  A single pass that rebuilds the deque."""
    kept: list[int] = []
    keep = kept.append
    for j in iq:
        complete = op_complete[j]
        if 0 <= complete <= now:
            iq_used -= 1 + extras[j] // 2
        else:
            keep(j)
    iq.clear()
    iq.extend(kept)
    return iq_used


class BatchedCoreModel(CoreModel):
    """`CoreModel` with the per-op loop fused into one frame."""

    #: Fill the per-op result columns, as the scalar core always does
    #: (the differential tests set it); off, a run keeps no per-op state
    #: outside its window.
    record_ops = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Oldest op still in the ROB; the window is ``[_head, _next)``,
        # both indices into the current slice, whose first op is op
        # ``_base`` of the trace.
        self._head = 0
        self._base = 0
        self._cut: tuple[list, ...] = ([],) * 8
        # Slice-aligned run state: each op's completion (-1 while
        # pending), and a pending op's DRAM request and return latency.
        self._complete: list[int] = []
        self._pending_req: list = []
        self._pending_lat: list[int] = []
        # The ops whose consumers occupy issue-queue slots, in window
        # order.  An op leaves when it completes by a drain's ``now`` or
        # when it retires; since both the deque and the retire order are
        # by op index, a retiring op is in the IQ exactly when it is the
        # deque's head.
        self._iq: deque[int] = deque()

    def start(self, trace: Trace | BlockTrace, at: int = 0) -> None:
        self._begin(trace, at)
        self._head = self._base = 0
        self._cut = ([],) * 8
        self._complete, self._pending_req, self._pending_lat = [], [], []
        self._advance()

    @property
    def done(self) -> bool:
        return self._next >= len(self._cut[0])

    def _advance(self) -> bool:
        """Cut the next slice once every op of this one has dispatched (or
        the first, at start): the window ``[_head, _next)`` moves to its
        front.  False when the trace has no ops left."""
        head = self._head
        floor = self._base + head
        cut = self._reader.next_slice(floor)
        if cut is None:
            return False
        n = len(cut[0])
        self._cut = tuple(old[head:] + new
                          for old, new in zip(self._cut, cut))
        self._complete = self._complete[head:] + [-1] * n
        self._pending_req = self._pending_req[head:] + [None] * n
        self._pending_lat = self._pending_lat[head:] + [0] * n
        iq = self._iq
        moved = [j - head for j in iq]
        iq.clear()
        iq.extend(moved)
        self._base = floor
        self._head = 0
        self._next -= head
        return True

    def stepper(self, i_key: int) -> Generator[float,
                                               tuple[float, int] | None,
                                               None]:
        """The fused op loop as a resumable generator.  ``next()`` primes
        it and returns the first dispatch time.  Each ``send(bound)``
        executes ops until the trace ends (the generator returns) or
        ``(next dispatch time, i_key)`` is no longer strictly the earliest
        entry (it yields that dispatch time).  ``bound`` is the driver
        heap's current minimum, or None to run the trace out.  The core's
        state lives in the loop's locals until the trace ends, so cores
        that dispatch in lockstep pay the set-up below once per trace, not
        once per switch (and once per slice)."""
        if self._reader is None:
            raise RuntimeError("no trace started")
        record = self.record_ops
        rec_issue = self.op_issue
        rec_complete = self.op_complete
        rec_level = self.op_level
        cfg = self.config
        width = cfg.width
        rob_size = cfg.rob_size
        iq_size = cfg.iq_size
        lq_size = cfg.lq_size
        sq_size = cfg.sq_size
        counters = self.stats.counters
        iq = self._iq
        hierarchy_access = self.hierarchy.access
        atomics = self.atomics
        core_id = self.core_id
        obs = self.obs
        dram_complete = self.dram.complete
        ops_run = 0
        instr_run = 0
        # Occupancy, fetch, and finish state live in locals for the duration
        # of the loop; the forced-retire bodies are inlined below
        # (``_retire_oldest(forced=True)`` line for line) and written back
        # once, when the trace ends.
        fetch_time = self._fetch_time
        rob_used = self._rob_used
        iq_used = self._iq_used
        lq_used = self._lq_used
        sq_used = self._sq_used
        finish = self._finish
        bound = yield fetch_time
        if bound is None:
            b_time = b_key = None
        else:
            b_time, b_key = bound
        while True:
            # One slice: ops ``[next_i, n)`` of its lists are to dispatch.
            kinds, addrs, _, deps_col, extras, atomic_col, pcs, tags = \
                self._cut
            n = len(kinds)
            op_complete = self._complete
            pending_req = self._pending_req
            pending_lat = self._pending_lat
            base = self._base
            head = self._head
            next_i = self._next
            while True:
                i = next_i
                next_i += 1
                extra = extras[i]
                instrs = 1 + extra
                kind = kinds[i]
                is_load = kind == 0

                # Frontend: fetch/decode bandwidth.
                fetch_time += instrs / width
                dispatch = fetch_time

                # Structural stalls (ROB / IQ / LQ / SQ), as in
                # CoreModel.step.
                while head < i and rob_used + instrs > rob_size:
                    counters["rob_stalls"] += 1
                    # ---- _retire_oldest(forced=True), inlined ----
                    h = head
                    head += 1
                    done = op_complete[h]
                    if done < 0:
                        request = pending_req[h]
                        pending_req[h] = None
                        if request.finish < 0:
                            dram_complete(request)
                        done = request.finish + pending_lat[h]
                        op_complete[h] = done
                        if record:
                            rec_complete[base + h] = done
                    h_extra = extras[h]
                    rob_used -= 1 + h_extra
                    if iq and iq[0] == h:
                        iq.popleft()
                        iq_used -= 1 + h_extra // 2
                    if kinds[h] == 0:
                        lq_used -= 1
                    else:
                        sq_used -= 1
                    if done > finish:
                        finish = done
                    if done > fetch_time:
                        if obs is not None:
                            obs.core_span(core_id, "rob-blocked",
                                          fetch_time, done)
                        fetch_time = float(done)
                if iq_used + instrs > iq_size:
                    iq_used = _drain_iq(iq, op_complete, extras, fetch_time,
                                        iq_used)
                    while iq and iq_used + instrs > iq_size:
                        counters["iq_stalls"] += 1
                        # ---- self._complete(oldest IQ resident) ----
                        h = iq[0]
                        done = op_complete[h]
                        if done < 0:
                            request = pending_req[h]
                            pending_req[h] = None
                            if request.finish < 0:
                                dram_complete(request)
                            done = request.finish + pending_lat[h]
                            op_complete[h] = done
                            if record:
                                rec_complete[base + h] = done
                        if done > fetch_time:
                            fetch_time = float(done)
                        iq_used = _drain_iq(iq, op_complete, extras,
                                            fetch_time, iq_used)
                stall_key = "lq_stalls" if is_load else "sq_stalls"
                while head < i and (lq_used >= lq_size if is_load
                                    else sq_used >= sq_size):
                    counters[stall_key] += 1
                    # ---- _retire_oldest(forced=True), inlined ----
                    h = head
                    head += 1
                    done = op_complete[h]
                    if done < 0:
                        request = pending_req[h]
                        pending_req[h] = None
                        if request.finish < 0:
                            dram_complete(request)
                        done = request.finish + pending_lat[h]
                        op_complete[h] = done
                        if record:
                            rec_complete[base + h] = done
                    h_extra = extras[h]
                    rob_used -= 1 + h_extra
                    if iq and iq[0] == h:
                        iq.popleft()
                        iq_used -= 1 + h_extra // 2
                    if kinds[h] == 0:
                        lq_used -= 1
                    else:
                        sq_used -= 1
                    if done > finish:
                        finish = done
                    if done > fetch_time:
                        if obs is not None:
                            obs.core_span(core_id, "rob-blocked",
                                          fetch_time, done)
                        fetch_time = float(done)
                if fetch_time > dispatch:
                    dispatch = fetch_time

                # Data dependences.  The slice holds no edge to an op
                # before its first, and an edge to an op retired since is
                # read from its published completion, which cannot
                # exceed ``issue``.
                issue = int(dispatch)
                deps = deps_col[i]
                if deps:
                    ready = 0
                    for dep_idx in deps:
                        complete = op_complete[dep_idx]
                        if complete < 0:
                            # Pending, so in the window (a retired op has
                            # published its completion time).
                            if not head <= dep_idx < i:
                                raise RuntimeError(
                                    f"dependence on op {base + dep_idx} "
                                    f"which never executed")
                            # ---- self._complete(producer), inlined ----
                            request = pending_req[dep_idx]
                            pending_req[dep_idx] = None
                            if request.finish < 0:
                                dram_complete(request)
                            complete = request.finish + pending_lat[dep_idx]
                            op_complete[dep_idx] = complete
                            if record:
                                rec_complete[base + dep_idx] = complete
                        if complete > ready:
                            ready = complete
                    if ready > issue:
                        issue = ready

                atomic = atomic_col[i]
                if atomic:
                    issue = atomics.acquire(core_id, issue)
                    counters["atomics"] += 1

                # Positional arguments on the per-op hierarchy call; kind
                # codes 1 and 2 (store, RMW) write.
                (level, r_issue, complete, request,
                 ret_lat) = hierarchy_access(core_id, addrs[i], kind != 0,
                                             issue, pcs[i], tags[i])
                if atomic:
                    # ``AccessResult.resolve`` over the tuple fields.
                    if complete < 0:
                        if request.finish < 0:
                            dram_complete(request)
                        complete = request.finish + ret_lat
                    op_complete[i] = complete
                    atomics.release(core_id, issue, complete)
                elif complete >= 0:
                    op_complete[i] = complete
                else:
                    pending_req[i] = request
                    pending_lat[i] = ret_lat
                    iq_used += 1 + extra // 2
                    iq.append(i)
                if record:
                    rec_issue.append(r_issue)
                    rec_level.append(level)
                    rec_complete.append(op_complete[i])
                rob_used += instrs
                if is_load:
                    lq_used += 1
                else:
                    sq_used += 1
                ops_run += 1
                instr_run += instrs

                if next_i >= n:
                    break
                # ``(fetch_time, i_key) >= bound`` without the per-op
                # tuple.
                if b_time is not None and (
                        fetch_time > b_time
                        or (fetch_time == b_time and i_key >= b_key)):
                    bound = yield fetch_time
                    if bound is None:
                        b_time = b_key = None
                    else:
                        b_time, b_key = bound
            # Every op of the slice has dispatched: cut the next one, then
            # make the slice's last op's bound check.
            self._head = head
            self._next = next_i
            if not self._advance():
                break
            if b_time is not None and (
                    fetch_time > b_time
                    or (fetch_time == b_time and i_key >= b_key)):
                bound = yield fetch_time
                if bound is None:
                    b_time = b_key = None
                else:
                    b_time, b_key = bound
        self._fetch_time = fetch_time
        self._rob_used = rob_used
        self._iq_used = iq_used
        self._lq_used = lq_used
        self._sq_used = sq_used
        self._finish = finish
        counters["ops"] += ops_run
        counters["instructions"] += instr_run

    def drain(self) -> int:
        """`CoreModel.drain` with the per-op retire inlined."""
        kinds = self._cut[0]
        extras = self._cut[4]
        record = self.record_ops
        rec_complete = self.op_complete
        base = self._base
        op_complete = self._complete
        pending_req = self._pending_req
        pending_lat = self._pending_lat
        dram_complete = self.dram.complete
        width = self.config.width
        iq = self._iq
        head = self._head
        next_i = self._next
        rob_used = self._rob_used
        iq_used = self._iq_used
        lq_used = self._lq_used
        sq_used = self._sq_used
        fetch_time = self._fetch_time
        finish = self._finish
        while head < next_i:
            # ---- _retire_oldest(forced=False), inlined ----
            h = head
            head += 1
            done = op_complete[h]
            if done < 0:
                request = pending_req[h]
                pending_req[h] = None
                if request.finish < 0:
                    dram_complete(request)
                done = request.finish + pending_lat[h]
                op_complete[h] = done
                if record:
                    rec_complete[base + h] = done
            h_extra = extras[h]
            rob_used -= 1 + h_extra
            if iq and iq[0] == h:
                iq.popleft()
                iq_used -= 1 + h_extra // 2
            if kinds[h] == 0:
                lq_used -= 1
            else:
                sq_used -= 1
            if done > finish:
                finish = done
            refill = done - rob_used / width
            if refill > fetch_time:
                fetch_time = refill
        tail = self._reader.tail_instrs if self._reader else 0
        if tail:
            self.stats.counters["instructions"] += tail
            fetch_time += tail / width
        if int(fetch_time) > finish:
            finish = int(fetch_time)
        self._head = head
        self._rob_used = rob_used
        self._iq_used = iq_used
        self._lq_used = lq_used
        self._sq_used = sq_used
        self._fetch_time = fetch_time
        self._finish = finish
        return finish

    def run(self, trace: Trace | BlockTrace, at: int = 0) -> int:
        self.start(trace, at)
        if not self.done:
            steps = self.stepper(self.core_id)
            next(steps)
            with suppress(StopIteration):
                steps.send(None)
        return self.drain()


class BatchedMulticore(Multicore):
    """`Multicore` with the event-skip driver loop."""

    core_cls = BatchedCoreModel

    def run(self, traces: list[Trace | BlockTrace], at: int = 0) -> int:
        if len(traces) > len(self.cores):
            raise ValueError(
                f"{len(traces)} traces for {len(self.cores)} cores"
            )
        cores = self.cores
        active = []
        steppers = {}
        for i, trace in enumerate(traces):
            core = cores[i]
            core.start(trace, at)
            if not core.done:
                steps = core.stepper(i)
                active.append((next(steps), i))
                steppers[i] = steps
        heapq.heapify(active)
        heappop = heapq.heappop
        heappush = heapq.heappush
        while active:
            _, i = heappop(active)
            try:
                heappush(active,
                         (steppers[i].send(active[0] if active else None), i))
            except StopIteration:
                continue
        finish = at
        for i in range(len(traces)):
            finish = max(finish, cores[i].drain())
        return finish
