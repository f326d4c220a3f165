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

The fused loop reads the trace's columns by op index and writes each op's
timing into the core's result columns; no per-op record object is built.
Ops enter the ROB in trace order and retire in order, so the window is
the op-index range ``[_head, _next)`` and an op's occupancy (``1 +
extra``, its LQ or SQ slot) is read back from the trace at retire.  An
op is pending while its ``op_complete`` is -1; only then does the core
keep its DRAM request and return latency, in a ring of slots indexed by
op index (``i & _mask``), and the slot is cleared when the op resolves.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Generator
from contextlib import suppress

from repro.common.types import AccessType
from repro.core.multicore import Multicore
from repro.core.ooo import CoreModel
from repro.core.trace import Trace


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

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Oldest op still in the ROB; the window is ``[_head, _next)``.
        self._head = 0
        # The window holds at most ``rob_size`` ops (each op occupies at
        # least one ROB entry, and a stalled op waits for room unless the
        # window is empty), so a ring of ``>= rob_size`` slots indexed by
        # op index never lets two ops of one window share a slot.
        slots = 1 << max(self.config.rob_size - 1, 0).bit_length()
        self._mask = slots - 1
        self._pending_req: list = [None] * slots
        self._pending_lat = [0] * slots
        # The ops whose consumers occupy issue-queue slots, in window
        # order.  An op leaves when it completes by a drain's ``now`` or
        # when it retires; since both the deque and the retire order are
        # by op index, a retiring op is in the IQ exactly when it is the
        # deque's head.
        self._iq: deque[int] = deque()

    def start(self, trace: Trace, at: int = 0) -> None:
        super().start(trace, at)
        self._head = 0

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
        once per switch."""
        trace = self._trace
        if trace is None:
            raise RuntimeError("trace exhausted")
        kinds = trace.kind
        addrs = trace.addr
        deps_col = trace.deps
        extras = trace.extra
        atomic_col = trace.atomic
        pcs = trace.pc
        tags = trace.tag
        n = len(kinds)
        op_issue = self.op_issue
        op_complete = self.op_complete
        op_level = self.op_level
        head = self._head
        next_i = self._next
        cfg = self.config
        width = cfg.width
        rob_size = cfg.rob_size
        iq_size = cfg.iq_size
        lq_size = cfg.lq_size
        sq_size = cfg.sq_size
        counters = self.stats.counters
        mask = self._mask
        pending_req = self._pending_req
        pending_lat = self._pending_lat
        iq = self._iq
        hierarchy_access = self.hierarchy.access
        atomics = self.atomics
        core_id = self.core_id
        obs = self.obs
        dram_complete = self.dram.complete
        load_kind = AccessType.LOAD
        store_kind = AccessType.STORE
        rmw_kind = AccessType.RMW
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
            i = next_i
            next_i += 1
            extra = extras[i]
            instrs = 1 + extra
            kind = kinds[i]
            is_load = kind is load_kind

            # Frontend: fetch/decode bandwidth.
            fetch_time += instrs / width
            dispatch = fetch_time

            # Structural stalls (ROB / IQ / LQ / SQ), as in CoreModel.step.
            while head < i and rob_used + instrs > rob_size:
                counters["rob_stalls"] += 1
                # ---- _retire_oldest(forced=True), inlined ----
                h = head
                head += 1
                done = op_complete[h]
                if done < 0:
                    slot = h & mask
                    request = pending_req[slot]
                    pending_req[slot] = None
                    if request.finish < 0:
                        dram_complete(request)
                    done = request.finish + pending_lat[slot]
                    op_complete[h] = done
                h_extra = extras[h]
                rob_used -= 1 + h_extra
                if iq and iq[0] == h:
                    iq.popleft()
                    iq_used -= 1 + h_extra // 2
                if kinds[h] is load_kind:
                    lq_used -= 1
                else:
                    sq_used -= 1
                if done > finish:
                    finish = done
                if done > fetch_time:
                    if obs is not None:
                        obs.core_span(core_id, "rob-blocked", fetch_time,
                                      done)
                    fetch_time = float(done)
            if iq_used + instrs > iq_size:
                iq_used = _drain_iq(iq, op_complete, extras, fetch_time,
                                    iq_used)
                while iq and iq_used + instrs > iq_size:
                    counters["iq_stalls"] += 1
                    # ---- self._complete(oldest IQ resident), inlined ----
                    h = iq[0]
                    done = op_complete[h]
                    if done < 0:
                        slot = h & mask
                        request = pending_req[slot]
                        pending_req[slot] = None
                        if request.finish < 0:
                            dram_complete(request)
                        done = request.finish + pending_lat[slot]
                        op_complete[h] = done
                    if done > fetch_time:
                        fetch_time = float(done)
                    iq_used = _drain_iq(iq, op_complete, extras, fetch_time,
                                        iq_used)
            stall_key = "lq_stalls" if is_load else "sq_stalls"
            while head < i and (lq_used >= lq_size if is_load
                                else sq_used >= sq_size):
                counters[stall_key] += 1
                # ---- _retire_oldest(forced=True), inlined ----
                h = head
                head += 1
                done = op_complete[h]
                if done < 0:
                    slot = h & mask
                    request = pending_req[slot]
                    pending_req[slot] = None
                    if request.finish < 0:
                        dram_complete(request)
                    done = request.finish + pending_lat[slot]
                    op_complete[h] = done
                h_extra = extras[h]
                rob_used -= 1 + h_extra
                if iq and iq[0] == h:
                    iq.popleft()
                    iq_used -= 1 + h_extra // 2
                if kinds[h] is load_kind:
                    lq_used -= 1
                else:
                    sq_used -= 1
                if done > finish:
                    finish = done
                if done > fetch_time:
                    if obs is not None:
                        obs.core_span(core_id, "rob-blocked", fetch_time,
                                      done)
                    fetch_time = float(done)
            if fetch_time > dispatch:
                dispatch = fetch_time

            # Data dependences.
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
                                f"dependence on op {dep_idx} which never "
                                f"executed")
                        # ---- self._complete(producer), inlined ----
                        slot = dep_idx & mask
                        request = pending_req[slot]
                        pending_req[slot] = None
                        if request.finish < 0:
                            dram_complete(request)
                        complete = request.finish + pending_lat[slot]
                        op_complete[dep_idx] = complete
                    if complete > ready:
                        ready = complete
                if ready > issue:
                    issue = ready

            atomic = atomic_col[i]
            if atomic:
                issue = atomics.acquire(core_id, issue)
                counters["atomics"] += 1

            # ``kind.is_write`` spelled as two identity checks (the enum
            # property builds a membership tuple per call); positional
            # arguments on the per-op hierarchy call.
            (level, r_issue, complete, request,
             ret_lat) = hierarchy_access(core_id, addrs[i],
                                         kind is store_kind
                                         or kind is rmw_kind,
                                         issue, pcs[i], tags[i])
            op_issue[i] = r_issue
            op_level[i] = level
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
                slot = i & mask
                pending_req[slot] = request
                pending_lat[slot] = ret_lat
                iq_used += 1 + extra // 2
                iq.append(i)
            rob_used += instrs
            if is_load:
                lq_used += 1
            else:
                sq_used += 1
            ops_run += 1
            instr_run += instrs

            if next_i >= n:
                break
            # ``(fetch_time, i_key) >= bound`` without the per-op tuple.
            if b_time is not None and (
                    fetch_time > b_time
                    or (fetch_time == b_time and i_key >= b_key)):
                bound = yield fetch_time
                if bound is None:
                    b_time = b_key = None
                else:
                    b_time, b_key = bound
        self._head = head
        self._next = next_i
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
        trace = self._trace
        kinds = trace.kind if trace else []
        extras = trace.extra if trace else []
        load_kind = AccessType.LOAD
        op_complete = self.op_complete
        dram_complete = self.dram.complete
        width = self.config.width
        mask = self._mask
        pending_req = self._pending_req
        pending_lat = self._pending_lat
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
                slot = h & mask
                request = pending_req[slot]
                pending_req[slot] = None
                if request.finish < 0:
                    dram_complete(request)
                done = request.finish + pending_lat[slot]
                op_complete[h] = done
            h_extra = extras[h]
            rob_used -= 1 + h_extra
            if iq and iq[0] == h:
                iq.popleft()
                iq_used -= 1 + h_extra // 2
            if kinds[h] is load_kind:
                lq_used -= 1
            else:
                sq_used -= 1
            if done > finish:
                finish = done
            refill = done - rob_used / width
            if refill > fetch_time:
                fetch_time = refill
        tail = trace.tail_instrs if trace else 0
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

    def run(self, trace: Trace, at: int = 0) -> int:
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

    def run(self, traces: list[Trace], at: int = 0) -> int:
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
