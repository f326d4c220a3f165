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


class _Flight:
    """In-flight record for the batched core: the scalar ``_InFlight``
    with the ``AccessResult`` fields folded in and the op named by its
    index.  The batched hierarchy returns ``(level, issue, complete,
    request, ret_lat)`` as a tuple, and those fields land directly here —
    no intermediate result object is ever built on the batched path."""

    __slots__ = ("index", "is_load", "instrs", "done", "request", "ret_lat",
                 "in_iq", "iq_instrs")

    def __init__(self, index, is_load, instrs, done, request, ret_lat):
        self.index = index
        self.is_load = is_load
        self.instrs = instrs
        self.done = done          # completion time, -1 while pending
        self.request = request
        self.ret_lat = ret_lat
        self.in_iq = False
        self.iq_instrs = 0


class BatchedCoreModel(CoreModel):
    """`CoreModel` with the per-op loop fused into one frame."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # The flights whose consumers still occupy issue-queue slots, in
        # window (append) order: the scalar model scans the whole ROB
        # window for them.  Retired flights are removed lazily: they stay
        # here with ``in_iq`` already cleared and get skipped/popped on the
        # next drain, so the IQ scan touches only IQ residents.
        self._iq_flights: deque[_Flight] = deque()

    def start(self, trace: Trace, at: int = 0) -> None:
        super().start(trace, at)
        # Op index -> in-flight record, so dependence resolution is a dict
        # probe instead of the scalar engine's ROB-window scan.  Entries
        # are only consulted while the producer's ``op_complete`` is still
        # -1 (a retired flight has published its completion time), so
        # nothing needs to be evicted before the next trace resets it.
        self._unresolved: dict[int, _Flight] = {}

    def _complete(self, flight) -> int:
        # Scalar ``_complete`` over the folded flight fields.
        done = flight.done
        if done < 0:
            request = flight.request
            if request.finish < 0:
                self.dram.complete(request)
            done = request.finish + flight.ret_lat
            flight.done = done
        self.op_complete[flight.index] = done
        return done

    def _drain_iq(self, now: float) -> None:
        # Scalar ``_drain_iq`` over the IQ residents: a single pass that
        # rebuilds the deque (survivors keep their window order).
        if not self._iq_used:
            if self._iq_flights:
                self._iq_flights.clear()
            return
        flights = self._iq_flights
        kept: list[_Flight] = []
        keep = kept.append
        iq_used = self._iq_used
        for flight in flights:
            if not flight.in_iq:
                continue
            complete = flight.done
            if 0 <= complete <= now:
                flight.in_iq = False
                iq_used -= flight.iq_instrs
            else:
                keep(flight)
        self._iq_used = iq_used
        flights.clear()
        flights.extend(kept)

    def stepper(self, i_key: int) -> Generator[None, tuple[float, int] | None,
                                               None]:
        """The fused op loop as a resumable generator, primed with
        ``next()``.  Each ``send(bound)`` executes ops until the trace ends
        (the generator returns) or ``(next_time, i_key)`` is no longer
        strictly the earliest entry (it writes the core state back and
        yields).  ``bound`` is the driver heap's current minimum, or None
        to run the trace out.  Resuming keeps the loop's locals, so cores
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
        next_i = self._next
        cfg = self.config
        width = cfg.width
        rob_size = cfg.rob_size
        iq_size = cfg.iq_size
        lq_size = cfg.lq_size
        sq_size = cfg.sq_size
        counters = self.stats.counters
        window = self._window
        unresolved = self._unresolved
        iq_flights = self._iq_flights   # never rebound, only mutated
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
        # (``_retire_oldest(forced=True)`` line for line), so only
        # ``_drain_iq`` still needs its slice of state synced — and
        # everything is written back unconditionally on exit.
        fetch_time = self._fetch_time
        rob_used = self._rob_used
        iq_used = self._iq_used
        lq_used = self._lq_used
        sq_used = self._sq_used
        finish = self._finish
        bound = yield
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
            while window and rob_used + instrs > rob_size:
                counters["rob_stalls"] += 1
                # ---- _retire_oldest(forced=True), inlined ----
                flight = window.popleft()
                done = flight.done
                if done < 0:
                    request = flight.request
                    if request.finish < 0:
                        dram_complete(request)
                    done = request.finish + flight.ret_lat
                    flight.done = done
                op_complete[flight.index] = done
                rob_used -= flight.instrs
                if flight.in_iq:
                    iq_used -= flight.iq_instrs
                    flight.in_iq = False
                if flight.is_load:
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
                self._iq_used = iq_used
                self._drain_iq(fetch_time)
                iq_used = self._iq_used
                while iq_used + instrs > iq_size:
                    while iq_flights and not iq_flights[0].in_iq:
                        iq_flights.popleft()
                    if not iq_flights:
                        break
                    counters["iq_stalls"] += 1
                    done = self._complete(iq_flights[0])
                    if done > fetch_time:
                        fetch_time = float(done)
                    self._drain_iq(fetch_time)
                    iq_used = self._iq_used
            stall_key = "lq_stalls" if is_load else "sq_stalls"
            while window and (lq_used >= lq_size if is_load
                              else sq_used >= sq_size):
                counters[stall_key] += 1
                # ---- _retire_oldest(forced=True), inlined ----
                flight = window.popleft()
                done = flight.done
                if done < 0:
                    request = flight.request
                    if request.finish < 0:
                        dram_complete(request)
                    done = request.finish + flight.ret_lat
                    flight.done = done
                op_complete[flight.index] = done
                rob_used -= flight.instrs
                if flight.in_iq:
                    iq_used -= flight.iq_instrs
                    flight.in_iq = False
                if flight.is_load:
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
                        dep_flight = unresolved.get(dep_idx)
                        if dep_flight is None:
                            raise RuntimeError(
                                f"dependence on op {dep_idx} which never "
                                f"executed")
                        # ---- self._complete(dep_flight), inlined ----
                        complete = dep_flight.done
                        if complete < 0:
                            request = dep_flight.request
                            if request.finish < 0:
                                dram_complete(request)
                            complete = (request.finish
                                        + dep_flight.ret_lat)
                            dep_flight.done = complete
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
            if complete >= 0:
                op_complete[i] = complete

            if atomic:
                # ``AccessResult.resolve`` over the tuple fields.
                if complete < 0:
                    if request.finish < 0:
                        dram_complete(request)
                    complete = request.finish + ret_lat
                op_complete[i] = complete
                atomics.release(core_id, issue, complete)

            flight = _Flight(i, is_load, instrs, complete, request, ret_lat)
            if complete < 0:
                unresolved[i] = flight
                flight.iq_instrs = 1 + extra // 2
                flight.in_iq = True
                iq_used += flight.iq_instrs
                iq_flights.append(flight)
            window.append(flight)
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
                self._next = next_i
                self._fetch_time = fetch_time
                self._rob_used = rob_used
                self._iq_used = iq_used
                self._lq_used = lq_used
                self._sq_used = sq_used
                self._finish = finish
                bound = yield
                if bound is None:
                    b_time = b_key = None
                else:
                    b_time, b_key = bound
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
        """`CoreModel.drain` with the per-flight retire inlined."""
        window = self._window
        dram_complete = self.dram.complete
        op_complete = self.op_complete
        width = self.config.width
        rob_used = self._rob_used
        iq_used = self._iq_used
        lq_used = self._lq_used
        sq_used = self._sq_used
        fetch_time = self._fetch_time
        finish = self._finish
        while window:
            # ---- _retire_oldest(forced=False), inlined ----
            flight = window.popleft()
            done = flight.done
            if done < 0:
                request = flight.request
                if request.finish < 0:
                    dram_complete(request)
                done = request.finish + flight.ret_lat
                flight.done = done
            op_complete[flight.index] = done
            rob_used -= flight.instrs
            if flight.in_iq:
                iq_used -= flight.iq_instrs
                flight.in_iq = False
            if flight.is_load:
                lq_used -= 1
            else:
                sq_used -= 1
            if done > finish:
                finish = done
            refill = done - rob_used / width
            if refill > fetch_time:
                fetch_time = refill
        self._iq_flights.clear()   # all retired above; drop stale refs
        tail = self._trace.tail_instrs if self._trace else 0
        if tail:
            self.stats.counters["instructions"] += tail
            fetch_time += tail / width
        if int(fetch_time) > finish:
            finish = int(fetch_time)
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
                active.append((core.next_time, i))
                steppers[i] = core.stepper(i)
                next(steppers[i])
        heapq.heapify(active)
        heappop = heapq.heappop
        heappush = heapq.heappush
        while active:
            _, i = heappop(active)
            try:
                steppers[i].send(active[0] if active else None)
            except StopIteration:
                continue
            heappush(active, (cores[i].next_time, i))
        finish = at
        for i in range(len(traces)):
            finish = max(finish, cores[i].drain())
        return finish
