"""Memory-operation traces and the builder workloads use to emit them.

A trace is the per-core instruction stream reduced to what the timing model
needs: memory operations with address, dependence edges (which earlier op
produced this op's address), and the count of non-memory instructions
attributed to each op (address arithmetic, loop control, compute).  The
instruction totals feed Figure 11(a); the dependence edges are what throttle
the baseline's memory-level parallelism.

A trace is stored as parallel per-op columns: op ``i`` is ``kind[i]``,
``addr[i]``, ``size[i]``, ``deps[i]``, ``extra[i]``, ``atomic[i]``,
``pc[i]`` and ``tag[i]``.  It holds inputs only.  The timing a core assigns
each op (issue, completion, hit level) belongs to the run and lives in the
core's result columns, so one trace can be run any number of times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.types import AccessType, MemOp


@dataclass
class Trace:
    """One core's dynamic stream, one list per op field."""

    kind: list[AccessType] = field(default_factory=list)
    addr: list[int] = field(default_factory=list)
    size: list[int] = field(default_factory=list)
    deps: list[tuple[int, ...]] = field(default_factory=list)
    extra: list[int] = field(default_factory=list)   # attributed instrs
    atomic: list[bool] = field(default_factory=list)
    pc: list[int] = field(default_factory=list)
    tag: list[int] = field(default_factory=list)
    tail_instrs: int = 0  # trailing non-memory instructions after the last op

    @property
    def instructions(self) -> int:
        """Total dynamic instruction count (memory + attributed compute)."""
        return len(self.kind) + sum(self.extra) + self.tail_instrs

    def __len__(self) -> int:
        return len(self.kind)

    def op(self, i: int) -> MemOp:
        """Op ``i`` as a fresh :class:`MemOp` (the scalar core's view)."""
        return MemOp(self.kind[i], self.addr[i], self.size[i], self.deps[i],
                     self.extra[i], self.atomic[i], self.pc[i], self.tag[i])


class TraceBuilder:
    """Incrementally builds a :class:`Trace`.

    ``load``/``store``/``rmw`` return the op's index so later ops can name it
    in ``deps``.  ``compute(n)`` attributes ``n`` standalone instructions to
    the *next* op (or to the trace tail if no op follows).
    """

    def __init__(self) -> None:
        self._trace = trace = Trace()
        self._kind = trace.kind
        self._addr = trace.addr
        self._size = trace.size
        self._deps = trace.deps
        self._extra = trace.extra
        self._atomic = trace.atomic
        self._pc = trace.pc
        self._tag = trace.tag
        self._pending_extra = 0

    def compute(self, n: int) -> None:
        if n < 0:
            raise ValueError("instruction count must be non-negative")
        self._pending_extra += n

    # ``load``/``store``/``rmw`` each inline the emit body: workloads call
    # them once per dynamic memory op, so trace construction pays one
    # function call per op instead of two.

    def load(self, addr: int, size: int = 8, deps: tuple[int, ...] = (),
             extra: int = 0, pc: int = 0, tag: int = -1) -> int:
        kinds = self._kind
        n = len(kinds)
        if deps:
            for d in deps:
                if not 0 <= d < n:
                    raise ValueError(f"dependence on unknown op {d}")
        if self._pending_extra:
            extra += self._pending_extra
            self._pending_extra = 0
        kinds.append(AccessType.LOAD)
        self._addr.append(addr)
        self._size.append(size)
        self._deps.append(deps)
        self._extra.append(extra)
        self._atomic.append(False)
        self._pc.append(pc)
        self._tag.append(tag)
        return n

    def store(self, addr: int, size: int = 8, deps: tuple[int, ...] = (),
              extra: int = 0, atomic: bool = False, pc: int = 0,
              tag: int = -1) -> int:
        kinds = self._kind
        n = len(kinds)
        if deps:
            for d in deps:
                if not 0 <= d < n:
                    raise ValueError(f"dependence on unknown op {d}")
        if self._pending_extra:
            extra += self._pending_extra
            self._pending_extra = 0
        kinds.append(AccessType.STORE)
        self._addr.append(addr)
        self._size.append(size)
        self._deps.append(deps)
        self._extra.append(extra)
        self._atomic.append(atomic)
        self._pc.append(pc)
        self._tag.append(tag)
        return n

    def rmw(self, addr: int, size: int = 8, deps: tuple[int, ...] = (),
            extra: int = 0, atomic: bool = False, pc: int = 0,
            tag: int = -1) -> int:
        kinds = self._kind
        n = len(kinds)
        if deps:
            for d in deps:
                if not 0 <= d < n:
                    raise ValueError(f"dependence on unknown op {d}")
        if self._pending_extra:
            extra += self._pending_extra
            self._pending_extra = 0
        kinds.append(AccessType.RMW)
        self._addr.append(addr)
        self._size.append(size)
        self._deps.append(deps)
        self._extra.append(extra)
        self._atomic.append(atomic)
        self._pc.append(pc)
        self._tag.append(tag)
        return n

    def finish(self) -> Trace:
        self._trace.tail_instrs += self._pending_extra
        self._pending_extra = 0
        return self._trace


def split_static(items, ways: int) -> list[list]:
    """Deal an iteration list across ``ways`` cores in contiguous blocks,
    OpenMP ``schedule(static)`` style: every core but the last gets
    ``max(1, len(items) // ways)`` items, and the last core the rest."""
    if ways <= 0:
        raise ValueError("ways must be positive")
    chunk = max(1, len(items) // ways)
    out = [list(items[k * chunk:(k + 1) * chunk]) for k in range(ways - 1)]
    out.append(list(items[(ways - 1) * chunk:]))
    return out
