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

Two builders fill the columns.  :class:`TraceBuilder` appends one op per
call, in program order, which reads like the kernel it traces.
:class:`BulkEmitter` fills whole groups of ops by position from NumPy
arrays: a kernel that can compute where each of its ops lands in program
order (the registry workloads) pays a few array operations per group
instead of one Python call per op.  Both enforce the same rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
        self._trace = Trace()
        self._pending_extra = 0

    def compute(self, n: int) -> None:
        if n < 0:
            raise ValueError("instruction count must be non-negative")
        self._pending_extra += n

    def load(self, addr: int, size: int = 8, deps: tuple[int, ...] = (),
             extra: int = 0, pc: int = 0, tag: int = -1) -> int:
        return self._emit(AccessType.LOAD, addr, size, deps, extra, False,
                          pc, tag)

    def store(self, addr: int, size: int = 8, deps: tuple[int, ...] = (),
              extra: int = 0, atomic: bool = False, pc: int = 0,
              tag: int = -1) -> int:
        return self._emit(AccessType.STORE, addr, size, deps, extra, atomic,
                          pc, tag)

    def rmw(self, addr: int, size: int = 8, deps: tuple[int, ...] = (),
            extra: int = 0, atomic: bool = False, pc: int = 0,
            tag: int = -1) -> int:
        return self._emit(AccessType.RMW, addr, size, deps, extra, atomic,
                          pc, tag)

    def _emit(self, kind: AccessType, addr: int, size: int,
              deps: tuple[int, ...], extra: int, atomic: bool, pc: int,
              tag: int) -> int:
        trace = self._trace
        n = len(trace.kind)
        for d in deps:
            if not 0 <= d < n:
                raise ValueError(f"dependence on unknown op {d}")
        trace.kind.append(kind)
        trace.addr.append(addr)
        trace.size.append(size)
        trace.deps.append(deps)
        trace.extra.append(extra + self._pending_extra)
        trace.atomic.append(atomic)
        trace.pc.append(pc)
        trace.tag.append(tag)
        self._pending_extra = 0
        return n

    def finish(self) -> Trace:
        self._trace.tail_instrs += self._pending_extra
        self._pending_extra = 0
        return self._trace


_KINDS = np.array([AccessType.LOAD, AccessType.STORE, AccessType.RMW],
                  dtype=object)
_UNFILLED = -1


class BulkEmitter:
    """Builds a :class:`Trace` of ``n_ops`` ops by filling groups of op
    positions at once.

    ``load``/``store``/``rmw`` take ``pos``, an integer array of op
    positions, and per-op fields that are each a scalar or an array
    aligned with ``pos``; ``deps`` is a tuple of such arrays, one per
    dependence edge.  The rules are :class:`TraceBuilder`'s:

    * a dependence must name an earlier op (``0 <= d < pos``), or the fill
      raises ``ValueError``;
    * ``compute(pos, n)`` attributes ``n`` instructions to the op at
      ``pos``, the next op in program order, or to ``tail_instrs`` where
      ``pos == n_ops`` (no op follows);
    * every slot is filled exactly once, or ``finish`` raises
      ``ValueError``.
    """

    def __init__(self, n_ops: int) -> None:
        self.n_ops = n_ops
        self._filled = 0
        self._cols = {
            "kind": np.full(n_ops, _UNFILLED, dtype=np.int8),
            "addr": np.zeros(n_ops, dtype=np.int64),
            "size": np.zeros(n_ops, dtype=np.int32),
            "extra": np.zeros(n_ops + 1, dtype=np.int64),  # [n_ops] = tail
            "atomic": np.zeros(n_ops, dtype=bool),
            "pc": np.zeros(n_ops, dtype=np.int32),
            "tag": np.zeros(n_ops, dtype=np.int64),
        }
        self._deps: list[tuple[np.ndarray, tuple[np.ndarray, ...]]] = []

    def load(self, pos, addr, size=8, deps=(), extra=0, pc=0,
             tag=-1) -> None:
        self._fill(0, pos, addr, size, deps, extra, False, pc, tag)

    def store(self, pos, addr, size=8, deps=(), extra=0, atomic=False,
              pc=0, tag=-1) -> None:
        self._fill(1, pos, addr, size, deps, extra, atomic, pc, tag)

    def rmw(self, pos, addr, size=8, deps=(), extra=0, atomic=False,
            pc=0, tag=-1) -> None:
        self._fill(2, pos, addr, size, deps, extra, atomic, pc, tag)

    def compute(self, pos, n) -> None:
        pos = np.asarray(pos, dtype=np.int64)
        if np.any(np.asarray(n) < 0):
            raise ValueError("instruction count must be non-negative")
        if pos.size and not 0 <= pos.min() <= pos.max() <= self.n_ops:
            raise ValueError(f"compute position outside 0..{self.n_ops}")
        np.add.at(self._cols["extra"], pos, n)

    def _fill(self, kind, pos, addr, size, deps, extra, atomic, pc,
              tag) -> None:
        pos = np.asarray(pos, dtype=np.int64)
        if pos.size and not 0 <= pos.min() <= pos.max() < self.n_ops:
            raise ValueError(f"op position outside 0..{self.n_ops - 1}")
        edges = tuple(np.broadcast_to(np.asarray(d, dtype=np.int64),
                                      pos.shape) for d in deps)
        for d in edges:
            bad = (d < 0) | (d >= pos)
            if bad.any():
                raise ValueError(
                    f"dependence on unknown op {int(d[bad][0])}")
        cols = self._cols
        cols["kind"][pos] = kind
        cols["addr"][pos] = addr
        cols["size"][pos] = size
        cols["extra"][pos] += extra
        cols["atomic"][pos] = atomic
        cols["pc"][pos] = pc
        cols["tag"][pos] = tag
        if edges:
            self._deps.append((pos, edges))
        self._filled += pos.size

    def finish(self) -> Trace:
        n, cols = self.n_ops, self._cols
        unfilled = int(np.count_nonzero(cols["kind"] == _UNFILLED))
        if unfilled:
            raise ValueError(f"{unfilled} of {n} op slots left unfilled")
        if self._filled != n:
            raise ValueError(f"{self._filled - n} op slots filled twice")
        # Equal dependence targets and equal tags share one int object, as
        # they do when a kernel hands the same int to several builder calls.
        ops = np.arange(n).astype(object)
        deps = np.empty(n, dtype=object)
        deps.fill(())
        for pos, edges in self._deps:
            deps[pos] = np.fromiter(zip(*(ops[d].tolist() for d in edges)),
                                    dtype=object, count=pos.size)
        self._deps = []
        del ops
        extra = cols.pop("extra")
        trace = Trace(kind=_KINDS[cols.pop("kind")].tolist(),
                      deps=deps.tolist(), extra=extra[:n].tolist(),
                      tail_instrs=int(extra[n]))
        del deps, extra
        tags, where = np.unique(cols.pop("tag"), return_inverse=True)
        trace.tag = tags.astype(object)[where].tolist()
        del tags, where
        # One column at a time, each array released once it is a list.
        for name in ("addr", "size", "atomic", "pc"):
            setattr(trace, name, cols.pop(name).tolist())
        return trace


def split_static(items, ways: int) -> list:
    """Deal an iteration sequence across ``ways`` cores in contiguous
    blocks, OpenMP ``schedule(static)`` style: every core but the last gets
    ``max(1, len(items) // ways)`` items, and the last core the rest.
    Each block is a slice of ``items``: pass a ``range`` to get ranges."""
    if ways <= 0:
        raise ValueError("ways must be positive")
    chunk = max(1, len(items) // ways)
    out = [items[k * chunk:(k + 1) * chunk] for k in range(ways - 1)]
    out.append(items[(ways - 1) * chunk:])
    return out
