"""Memory-operation traces and the builders workloads use to emit them.

A trace is the per-core instruction stream reduced to what the timing model
needs: memory operations with address, dependence edges (which earlier op
produced this op's address), and the count of non-memory instructions
attributed to each op (address arithmetic, loop control, compute).  The
instruction totals feed Figure 11(a); the dependence edges are what throttle
the baseline's memory-level parallelism.

A :class:`Trace` stores its ops as packed NumPy columns: op ``i`` is
``kind[i]`` (0 load, 1 store, 2 RMW), ``addr[i]``, ``size[i]``,
``extra[i]``, ``atomic[i]``, ``pc[i]`` and ``tag[i]``, and its producers
are ``dep_idx[dep_ptr[i]:dep_ptr[i + 1]]`` (CSR).  That is about 45 bytes
per op and no Python object per op.  It holds inputs only: the timing a
core assigns each op belongs to the run, so one trace can be run any number
of times.

A core reads a trace through :class:`TraceReader`, which cuts plain-int
list slices of :data:`SLICE` ops from the columns.  A core's trace may also
be a :class:`BlockTrace`, a sequence of blocks of loop iterations, each
built when the reader reaches it; op indices (and dependences) run on
across its blocks as if they were one trace.

Two builders fill the columns.  :class:`TraceBuilder` appends one op per
call, in program order, which reads like the kernel it traces.
:class:`BulkEmitter` fills whole groups of ops by position from NumPy
arrays: a kernel that can compute where each of its ops lands in program
order (the registry workloads) pays a few array operations per group
instead of one Python call per op.  Both enforce the same rules.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.common.types import AccessType, MemOp

#: ``kind`` codes, indexed by :class:`AccessType` position.
KINDS = (AccessType.LOAD, AccessType.STORE, AccessType.RMW)
_CODE = {kind: code for code, kind in enumerate(KINDS)}

#: Ops per list slice a core reads at a time.
SLICE = 1 << 10

_DTYPES = {"kind": np.int8, "addr": np.int64, "size": np.int32,
           "extra": np.int32, "atomic": np.bool_, "pc": np.int32,
           "tag": np.int64, "dep_ptr": np.int64, "dep_idx": np.int64}


@dataclass(eq=False)
class Trace:
    """One core's dynamic stream (or one block of it) as packed columns."""

    kind: np.ndarray
    addr: np.ndarray
    size: np.ndarray
    extra: np.ndarray      # attributed instructions
    atomic: np.ndarray
    pc: np.ndarray
    tag: np.ndarray
    dep_ptr: np.ndarray    # len + 1 offsets into dep_idx
    dep_idx: np.ndarray    # producers, op indices within this trace
    tail_instrs: int = 0   # trailing non-memory instructions

    #: The packed columns, in the order :meth:`__eq__` compares them.
    COLUMNS = tuple(_DTYPES)

    @property
    def instructions(self) -> int:
        """Total dynamic instruction count (memory + attributed compute)."""
        return len(self.kind) + int(self.extra.sum()) + self.tail_instrs

    def __len__(self) -> int:
        return len(self.kind)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.tail_instrs == other.tail_instrs and all(
            getattr(self, c).dtype == getattr(other, c).dtype
            and np.array_equal(getattr(self, c), getattr(other, c))
            for c in self.COLUMNS)

    def op(self, i: int) -> MemOp:
        """Op ``i`` as a fresh :class:`MemOp` of plain ints."""
        lo, hi = int(self.dep_ptr[i]), int(self.dep_ptr[i + 1])
        return MemOp(KINDS[self.kind[i]], int(self.addr[i]),
                     int(self.size[i]), tuple(self.dep_idx[lo:hi].tolist()),
                     int(self.extra[i]), bool(self.atomic[i]),
                     int(self.pc[i]), int(self.tag[i]))

    def blocks(self) -> Iterator[Trace]:
        """The trace as a block source: one block, itself."""
        yield self

    def lists(self, lo: int, hi: int, shift: int) -> tuple[list, ...]:
        """Ops ``[lo, hi)`` as plain-int lists in :class:`MemOp` field
        order: kind codes, addresses, sizes, dependence tuples, extras,
        atomic flags, PCs and tags.  Each producer ``d`` reads as
        ``d - shift``; producers below ``shift`` are dropped."""
        ptr = self.dep_ptr[lo:hi + 1]
        a, b = int(ptr[0]), int(ptr[-1])
        deps: list = [()] * (hi - lo)
        if a < b:
            flat = self.dep_idx[a:b] - shift
            count = np.diff(ptr)
            low = np.flatnonzero(flat < 0)
            if low.size:
                np.subtract.at(count, np.searchsorted(
                    ptr, a + low, side="right") - 1, 1)
                flat = np.delete(flat, low)
            start = np.cumsum(count) - count
            col = np.empty(hi - lo, dtype=object)
            col.fill(())
            for c in range(1, int(count.max()) + 1 if flat.size else 1):
                at = np.flatnonzero(count == c)
                first = start[at]
                col[at] = np.fromiter(
                    zip(*(flat[first + k].tolist() for k in range(c))),
                    dtype=object, count=at.size)
            deps = col.tolist()
        return (self.kind[lo:hi].tolist(), self.addr[lo:hi].tolist(),
                self.size[lo:hi].tolist(), deps,
                self.extra[lo:hi].tolist(), self.atomic[lo:hi].tolist(),
                self.pc[lo:hi].tolist(), self.tag[lo:hi].tolist())


def _packed(cols: dict, tail: int) -> Trace:
    return Trace(**{name: np.asarray(cols[name], dtype=dtype)
                    for name, dtype in _DTYPES.items()}, tail_instrs=tail)


def join_blocks(blocks) -> Trace:
    """The one :class:`Trace` a block sequence stands for: columns
    concatenated, each block's producers moved by the ops before it, and
    the last block's tail."""
    blocks = list(blocks)
    if len(blocks) == 1:
        return blocks[0]
    cols = {c: np.concatenate([getattr(b, c) for b in blocks])
            for c in Trace.COLUMNS if not c.startswith("dep_")}
    ops = np.cumsum([0] + [len(b) for b in blocks])
    edges = np.cumsum([0] + [len(b.dep_idx) for b in blocks])
    cols["dep_idx"] = np.concatenate(
        [b.dep_idx + o for b, o in zip(blocks, ops)])
    cols["dep_ptr"] = np.concatenate(
        [[0]] + [b.dep_ptr[1:] + e for b, e in zip(blocks, edges)])
    return _packed(cols, blocks[-1].tail_instrs)


class BlockTrace:
    """One core's trace as blocks of loop iterations, each built by
    ``build(part)`` when a reader reaches it.

    ``parts`` are the blocks' iteration sequences, in program order; each
    block's trace is the whole part's trace for those iterations, with op
    indices local to the block.  The first block is built here, the rest
    on every pass of :meth:`blocks`, so a run holds the first block and
    the block it is reading."""

    def __init__(self, parts: Sequence, build: Callable[[object], Trace]):
        self.parts = list(parts)
        self.build = build
        self.first = build(self.parts[0])

    def blocks(self) -> Iterator[Trace]:
        """The blocks in order.  Instructions a block attributes past its
        last op belong to the next op, the next block's first: each tail
        but the last moves there, so only the last block has one."""
        carry = 0
        for k, part in enumerate(self.parts):
            block = self.build(part) if k else self.first
            if carry:
                if len(block):
                    block.extra[0] += carry
                else:
                    block.tail_instrs += carry
            carry = block.tail_instrs
            yield block


class TraceReader:
    """Plain-int list slices of a trace's ops, in op order, across its
    blocks.  After the last slice, :attr:`tail_instrs` is the trace's
    trailing instruction count."""

    def __init__(self, trace: Trace | BlockTrace) -> None:
        self._blocks = trace.blocks()
        self._block: Trace | None = None
        self._at = 0          # next op within the block
        self._offset = 0      # op index of the block's first op
        self.tail_instrs = 0

    def next_slice(self, floor: int = 0) -> tuple[list, ...] | None:
        """The next at most :data:`SLICE` ops as :meth:`Trace.lists`,
        producers as op indices minus ``floor`` (those below ``floor``
        dropped); None once every op has been read."""
        block = self._block
        while block is None or self._at >= len(block):
            if block is not None:
                self._offset += len(block)
            block = self._block = next(self._blocks, None)
            if block is None:
                return None
            self._at = 0
            self.tail_instrs = block.tail_instrs
        lo = self._at
        hi = self._at = min(lo + SLICE, len(block))
        return block.lists(lo, hi, floor - self._offset)


class TraceBuilder:
    """Incrementally builds a :class:`Trace`.

    ``load``/``store``/``rmw`` return the op's index so later ops can name it
    in ``deps``.  ``compute(n)`` attributes ``n`` standalone instructions to
    the *next* op (or to the trace tail if no op follows).
    """

    def __init__(self) -> None:
        self._cols: dict[str, list] = {name: [] for name in _DTYPES}
        self._cols["dep_ptr"].append(0)
        self._pending_extra = 0

    def __len__(self) -> int:
        return len(self._cols["kind"])

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
        cols = self._cols
        n = len(cols["kind"])
        for d in deps:
            if not 0 <= d < n:
                raise ValueError(f"dependence on unknown op {d}")
        cols["kind"].append(_CODE[kind])
        cols["addr"].append(addr)
        cols["size"].append(size)
        cols["dep_idx"].extend(deps)
        cols["dep_ptr"].append(len(cols["dep_idx"]))
        cols["extra"].append(extra + self._pending_extra)
        cols["atomic"].append(atomic)
        cols["pc"].append(pc)
        cols["tag"].append(tag)
        self._pending_extra = 0
        return n

    def finish(self) -> Trace:
        trace = _packed(self._cols, self._pending_extra)
        self._pending_extra = 0
        return trace


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
        # CSR dependences: each op's producers in the order its fill named
        # them (every slot is filled once, so by one fill).
        count = np.zeros(n, dtype=np.int64)
        for pos, edges in self._deps:
            count[pos] = len(edges)
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(count, out=ptr[1:])
        flat = np.empty(int(ptr[n]), dtype=np.int64)
        for pos, edges in self._deps:
            for k, d in enumerate(edges):
                flat[ptr[pos] + k] = d
        self._deps = []
        extra = cols.pop("extra")
        cols.update(extra=extra[:n], dep_ptr=ptr, dep_idx=flat)
        return _packed(cols, int(extra[n]))


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
