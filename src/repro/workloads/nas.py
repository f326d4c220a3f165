"""NAS parallel benchmarks: Integer Sort (IS) and Conjugate Gradient (CG).

IS (bucket-disabled, as in the paper) is key counting: ``count[K[i]] += 1``
over random keys — a pure indirect-RMW kernel whose baseline pays for
atomics on every update.  CG is CSR sparse matrix-vector product: streaming
column/value arrays with an indirect gather of the dense vector
(``x[col[j]]``) inside direct range loops (``j = H[i] to H[i+1]``,
Table 1).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.common.config import DX100Config
from repro.common.types import AluOp, DType
from repro.core.trace import BulkEmitter, Trace, split_static
from repro.dx100.api import ProgramBuilder
from repro.dx100.hostmem import HostMemory
from repro.dx100.isa import Instr
from repro.dx100.range_fuser import plan_range_chunks
from repro.workloads.base import (
    BASE_ADDR_CALC, PC_EXTRA, PC_INDEX, PC_INDIRECT, PC_OUTPUT, PC_SPD,
    PC_VALUE, CoreWork, DMPStream, Reference, Workload, chunk_bounds,
    expand_ranges, key_counts, nest_positions,
)


def _instr_count(items) -> int:
    return sum(isinstance(x, Instr) for x in items)


class IntegerSort(Workload):
    """NAS IS: ``count[K[i]] += 1`` (RMW A[B[i]], i = F to G)."""

    name = "IS"
    suite = "NAS"
    pattern = "RMW A[B[i]], i = F to G"

    def __init__(self, scale: int = 1 << 16, seed: int = 0,
                 bucket_space: int = 1 << 22) -> None:
        super().__init__(scale, seed)
        self.bucket_space = bucket_space

    def generate(self, mem: HostMemory) -> None:
        self._remember(mem)
        # No local name for the generated keys: the array is freed as
        # soon as it is placed, before ``ones`` is.
        self.k_base, self.keys = mem.place_input("K", self.rng.integers(
            0, self.bucket_space, self.scale, dtype=np.int64))
        self.count_base = mem.alloc("count", self.bucket_space, DType.U32)
        self.ones_base, _ = mem.place_input(
            "ones", np.broadcast_to(np.uint32(1), self.scale))

    def core_trace(self, part) -> Trace:
        # Per key: index load, then the atomic count update.
        i = np.arange(part.start, part.stop)
        at = 2 * np.arange(len(i))
        em = BulkEmitter(2 * len(i))
        em.load(at, self.k_base + 8 * i, pc=PC_INDEX, extra=2, tag=i)
        em.rmw(at + 1, self.count_base + 4 * self.keys[i], size=4,
               deps=(at,), atomic=True, pc=PC_INDIRECT,
               extra=BASE_ADDR_CALC, tag=i)
        return em.finish()

    def dx100_schedule(self, config: DX100Config, cores: int) -> list:
        items: list = []
        for lo, hi in chunk_bounds(self.scale, config.tile_elems):
            pb = ProgramBuilder(config)
            t_k = pb.sld(DType.I64, self.k_base, lo, hi)
            t_one = pb.sld(DType.U32, self.ones_base, lo, hi)
            pb.irmw(DType.U32, self.count_base, AluOp.ADD, t_k, t_one)
            pb.wait(t_k, t_one)
            items += pb.build()
        return items

    def expected(self) -> dict[str, Reference]:
        return {"count": key_counts(self.keys, np.uint32)}

    def dmp_streams(self) -> dict[int, DMPStream]:
        return {PC_INDIRECT: (self.count_base, 4, self.keys)}


class ConjugateGradient(Workload):
    """NAS CG: CSR SpMV ``y[i] = sum vals[j] * x[col[j]]``
    (LD A[B[j]], j = H[i] to H[i+1])."""

    name = "CG"
    suite = "NAS"
    pattern = "LD A[B[j]], j = H[i] to H[i+1]"

    def __init__(self, scale: int = 1 << 13, seed: int = 0,
                 avg_nnz: int = 16, columns: int = 1 << 21) -> None:
        super().__init__(scale, seed)
        self.avg_nnz = avg_nnz
        self.columns = columns

    def generate(self, mem: HostMemory) -> None:
        self._remember(mem)
        rows = self.scale
        degrees = self.rng.integers(self.avg_nnz // 2,
                                    self.avg_nnz * 3 // 2 + 1, rows)
        h = np.zeros(rows + 1, dtype=np.int64)
        h[1:] = np.cumsum(degrees)
        self.nnz = int(h[-1])
        col = self.rng.integers(0, self.columns, self.nnz, dtype=np.int64)
        x = self.rng.integers(0, 1 << 20, self.columns, dtype=np.int64)
        self.h_base, self.h = mem.place_input("H", h)
        self.col_base, self.col = mem.place_input("col", col)
        self.vals_base = mem.alloc("vals", self.nnz, DType.I64)
        self.x_base, self.x = mem.place_input("x", x)
        self.y_base = mem.alloc("y", rows, DType.I64)

    def core_trace(self, rows) -> Trace:
        # Per row: H load, per nonzero (col, vals, x[col]), y store.
        i = np.arange(rows.start, rows.stop)
        lo, hi = self.h[i], self.h[i + 1]
        owner, j = expand_ranges(lo, hi)
        row_at, nz_at, n = nest_positions(len(i), owner, head=1, body=3,
                                          tail=1)
        em = BulkEmitter(n)
        em.load(row_at, self.h_base + 8 * i, pc=PC_EXTRA, extra=2)
        em.load(nz_at, self.col_base + 8 * j, pc=PC_INDEX, extra=1,
                tag=j)
        em.load(nz_at + 1, self.vals_base + 8 * j, pc=PC_VALUE, extra=1)
        em.load(nz_at + 2, self.x_base + 8 * self.col[j], deps=(nz_at,),
                pc=PC_INDIRECT, extra=BASE_ADDR_CALC - 2, tag=j)
        em.store(row_at + 1 + 3 * (hi - lo), self.y_base + 8 * i,
                 pc=PC_OUTPUT, extra=2)
        return em.finish()

    def dx100_schedule(self, config: DX100Config, cores: int) -> list:
        items: list = []
        chunks = plan_range_chunks(self.h[:-1], self.h[1:],
                                   config.tile_elems)
        for r0, r1 in chunks:
            if self.h[r1] == self.h[r0]:
                continue
            pb = ProgramBuilder(config)
            t_lo = pb.sld(DType.I64, self.h_base, r0, r1)
            t_hi = pb.sld(DType.I64, self.h_base, r0 + 1, r1 + 1)
            t_outer, t_inner = pb.rng(t_lo, t_hi, outer_base=r0)
            t_col = pb.ild(DType.I64, self.col_base, t_inner)
            t_x = pb.ild(DType.I64, self.x_base, t_col)
            pb.wait(t_x)
            chunk_items = pb.build()
            j0, j1 = int(self.h[r0]), int(self.h[r1])
            self.expect_gather(
                _instr_count(items + chunk_items) - 1,
                self.x[self.col[j0:j1]])
            items += chunk_items
            items.append(CoreWork(functools.partial(
                self._residual, j0, j1, pb.spd_addr(t_x), cores)))
        return items

    def _residual(self, j0: int, j1: int, spd: int,
                  cores: int) -> list[Trace]:
        """Nonzeros ``[j0, j1)``' core work: stream ``vals[j]`` and the
        packed ``x`` tile at ``spd``, FMA, and store ``y[i]`` per row."""
        traces = []
        for part in split_static(range(j0, j1), cores):
            j = np.arange(part.start, part.stop)
            at = 2 * np.arange(len(j))
            em = BulkEmitter(2 * len(j))
            em.load(at, self.vals_base + 8 * j, pc=PC_VALUE, extra=1)
            em.load(at + 1, spd + 4 * (j - j0), size=4, pc=PC_SPD, extra=2)
            traces.append(em.finish())
        return traces

    def expected(self) -> dict[str, Reference]:
        return {}  # validation is via the gathered tiles (expect_gather)

    def dmp_streams(self) -> dict[int, DMPStream]:
        return {PC_INDIRECT: (self.x_base, 8, self.col)}

