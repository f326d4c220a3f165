"""A small affine loop IR — the reproduction's stand-in for MLIR.

The paper's compiler raises C to MLIR (affine/scf) with Polygeist, then
tiles, detects, hoists, and lowers (Section 4.2).  Our IR models the same
program shapes (Table 1): single and nested loops, conditional statements,
loads/stores/accumulating stores with arbitrarily nested index expressions.

Expressions are immutable trees; statements are lists.  Loops marked
``parallel`` assert no loop-carried dependences (the OpenMP contract the
paper's legality analysis relies on).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.types import AluOp, DType


# ------------------------------------------------------------- expressions

@dataclass(frozen=True)
class Const:
    value: int | float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: AluOp
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Load:
    """``array[index]``."""

    array: str
    index: "Expr"


Expr = Const | Var | BinOp | Load


# -------------------------------------------------------------- statements

@dataclass
class Assign:
    var: str
    expr: Expr


@dataclass
class Store:
    """``array[index] = value`` or, with ``accum``, ``array[index] op= value``."""

    array: str
    index: Expr
    value: Expr
    accum: AluOp | None = None


@dataclass
class If:
    cond: Expr
    body: list["Stmt"]


@dataclass
class Loop:
    """``for var in lo..hi step``; ``parallel`` asserts no loop-carried
    dependences (the OpenMP contract legality relies on)."""

    var: str
    lo: Expr
    hi: Expr
    body: list["Stmt"]
    step: int = 1
    parallel: bool = True


Stmt = Assign | Store | If | Loop


@dataclass(frozen=True)
class ArrayDecl:
    name: str
    dtype: DType
    length: int


@dataclass
class Function:
    """A kernel: declared arrays, scalar parameters, and a body."""

    name: str
    arrays: dict[str, ArrayDecl]
    body: list[Stmt]
    scalars: dict[str, int | float] = field(default_factory=dict)


# ------------------------------------------------------------------ helpers

def loads_in(expr: Expr) -> list[Load]:
    """All Load nodes in an expression tree, outermost first."""
    out: list[Load] = []
    _collect_loads(expr, out)
    return out


def _collect_loads(expr: Expr, out: list[Load]) -> None:
    if isinstance(expr, Load):
        out.append(expr)
        _collect_loads(expr.index, out)
    elif isinstance(expr, BinOp):
        _collect_loads(expr.lhs, out)
        _collect_loads(expr.rhs, out)


def vars_in(expr: Expr) -> set[str]:
    """All variable names appearing in an expression tree."""
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, BinOp):
        return vars_in(expr.lhs) | vars_in(expr.rhs)
    if isinstance(expr, Load):
        return vars_in(expr.index)
    return set()


def substitute(expr: Expr, bindings: dict[str, Expr]) -> Expr:
    """Replace Vars by their defining expressions (use-def chasing)."""
    if isinstance(expr, Var):
        replacement = bindings.get(expr.name)
        if replacement is None:
            return expr
        return substitute(replacement, bindings)
    if isinstance(expr, BinOp):
        return BinOp(expr.op, substitute(expr.lhs, bindings),
                     substitute(expr.rhs, bindings))
    if isinstance(expr, Load):
        return Load(expr.array, substitute(expr.index, bindings))
    return expr


def written_arrays(stmts: list[Stmt]) -> set[str]:
    """Names of every array any statement in ``stmts`` stores to."""
    out: set[str] = set()
    for stmt in stmts:
        if isinstance(stmt, Store):
            out.add(stmt.array)
        elif isinstance(stmt, If):
            out |= written_arrays(stmt.body)
        elif isinstance(stmt, Loop):
            out |= written_arrays(stmt.body)
    return out


def read_arrays(stmts: list[Stmt]) -> set[str]:
    """Names of every array any statement in ``stmts`` loads from."""
    out: set[str] = set()

    def expr_arrays(expr: Expr) -> None:
        for load in loads_in(expr):
            out.add(load.array)

    for stmt in stmts:
        if isinstance(stmt, Assign):
            expr_arrays(stmt.expr)
        elif isinstance(stmt, Store):
            expr_arrays(stmt.index)
            expr_arrays(stmt.value)
        elif isinstance(stmt, If):
            expr_arrays(stmt.cond)
            out |= read_arrays(stmt.body)
        elif isinstance(stmt, Loop):
            expr_arrays(stmt.lo)
            expr_arrays(stmt.hi)
            out |= read_arrays(stmt.body)
    return out
