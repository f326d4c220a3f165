"""Core value types shared by every subsystem.

The simulator is request-granular: cores execute :class:`MemOp`
(core-side memory operations, stored as trace columns) and the memory
system exchanges :class:`DRAMRequest` (controller-side DRAM transactions)
records, which carry the timing fields the models fill in as the request
moves through the system.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class AccessType(enum.Enum):
    """Kind of memory operation, as seen by the core or by DX100."""

    LOAD = "load"
    STORE = "store"
    RMW = "rmw"
    PREFETCH = "prefetch"

    @property
    def is_write(self) -> bool:
        return self in (AccessType.STORE, AccessType.RMW)


class HitLevel(enum.Enum):
    """Where in the memory hierarchy an access was satisfied."""

    L1 = "l1"
    L2 = "l2"
    LLC = "llc"
    DRAM = "dram"
    SPD = "spd"  # DX100 scratchpad


class AluOp(enum.Enum):
    """ALU operations supported by the DX100 ISA (Table 2)."""

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    MIN = "min"
    MAX = "max"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHR = "shr"
    SHL = "shl"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"

    @property
    def is_comparison(self) -> bool:
        return self in _COMPARISONS

    @property
    def is_commutative_associative(self) -> bool:
        """Whether the op is legal for IRMW (reorderable updates)."""
        return self in _RMW_SAFE


_COMPARISONS = frozenset(
    {AluOp.LT, AluOp.LE, AluOp.GT, AluOp.GE, AluOp.EQ}
)
_RMW_SAFE = frozenset(
    {AluOp.ADD, AluOp.MIN, AluOp.MAX, AluOp.AND, AluOp.OR, AluOp.XOR}
)


class DType(enum.Enum):
    """Element data types supported by DX100 (Table 2)."""

    U32 = "u32"
    I32 = "i32"
    F32 = "f32"
    U64 = "u64"
    I64 = "i64"
    F64 = "f64"

    @property
    def nbytes(self) -> int:
        return 4 if self in (DType.U32, DType.I32, DType.F32) else 8

    @property
    def numpy_name(self) -> str:
        return {
            DType.U32: "uint32",
            DType.I32: "int32",
            DType.F32: "float32",
            DType.U64: "uint64",
            DType.I64: "int64",
            DType.F64: "float64",
        }[self]


@dataclass(slots=True)
class MemOp:
    """One core-side memory operation in a trace.

    ``deps`` are indices of earlier ops in the same per-core trace whose
    completion this op's address depends on (index loads feeding an indirect
    access).  ``extra_instrs`` is the number of non-memory instructions
    (address arithmetic, loop control) attributed to this op; they consume
    frontend bandwidth and model the paper's instruction-count results.

    Traces store ops as columns (:class:`repro.core.trace.Trace`); a
    ``MemOp`` is one op read out of them, as the scalar core model does.
    It carries inputs only: the timing of an op belongs to the core run
    that executed it (the core's ``op_issue``/``op_complete``/``op_level``
    result columns).
    """

    kind: AccessType
    addr: int
    size: int = 8
    deps: tuple[int, ...] = ()
    extra_instrs: int = 0
    atomic: bool = False
    pc: int = 0
    tag: int = -1  # loop-iteration id, used by the DMP prefetcher model


@dataclass(slots=True)
class DRAMRequest:
    """A cache-line transaction presented to a memory controller."""

    addr: int
    is_write: bool
    arrival: int
    # Owning channel, stamped at system enqueue (-1 = not yet routed);
    # lets completion find its controller without re-decoding the address.
    channel: int = -1
    # Results, filled by the controller.
    start: int = -1
    finish: int = -1
    row_hit: bool = False
    # Far-memory tier: stamped at system enqueue when the address lives
    # behind the remote link (:mod:`repro.dram.remote`); the servicing
    # engine then routes the completion through the link's return path.
    # False whenever the link is disabled, leaving both engines untouched.
    far: bool = False

    @property
    def done(self) -> bool:
        return self.finish >= 0


@dataclass(slots=True)
class DRAMCoord:
    """Decoded DRAM coordinates of a physical address.

    ``flat_bank`` — the (channel, rank, bankgroup, bank) key every bank-state
    table is indexed by — is precomputed at construction: coordinates are
    decoded once per request but their bank key is consulted on every
    scheduler pick, so deriving it lazily was a measured hot spot.
    """

    channel: int
    rank: int
    bankgroup: int
    bank: int
    row: int
    column: int
    flat_bank: tuple[int, int, int, int] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.flat_bank = (self.channel, self.rank, self.bankgroup, self.bank)


@dataclass
class Interval:
    """A half-open address interval [lo, hi), used by alias analysis and the
    DX100 coherence regions."""

    lo: int
    hi: int

    def overlaps(self, other: "Interval") -> bool:
        return self.lo < other.hi and other.lo < self.hi

    def contains(self, addr: int) -> bool:
        return self.lo <= addr < self.hi

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"empty interval [{self.lo}, {self.hi})")
