"""UME proxy (LANL unstructured-mesh gradient kernels).

Four kernels over a synthetic unstructured mesh of Z zones and P points.
The zone-to-zone and zone-to-point maps have the limited spatial locality
the paper measures on the real 2M-zone dataset (average index distance
about Z/24), reproduced here with Laplacian-distributed offsets:

* GZZ  — ``RMW A[B[i]]  if D[i] >= F``  (zone-to-zone accumulate)
* GZZI — ``LD A[B[C[j]]] if D[j] >= F`` over ``j = H[K[i]] .. H[K[i]+1]``
* GZP  — ``RMW A[B[i]]  if D[i] >= F``  (zone-to-point accumulate)
* GZPI — ``LD A[B[C[j]]] if D[j] >= F`` over ``j = H[K[i]] .. H[K[i]+1]``
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
    BASE_ADDR_CALC, PC_EXTRA, PC_INDEX, PC_INDIRECT, PC_SPD, PC_VALUE,
    CoreWork, DMPStream, Workload, chunk_bounds, expand_ranges, nest_positions,
)

THRESHOLD = 50


def laplace_map(n: int, target: int, spread: int, rng) -> np.ndarray:
    """An index map with the paper's limited-locality distribution."""
    offsets = rng.laplace(0.0, spread, n).astype(np.int64)
    return np.clip(np.arange(n, dtype=np.int64) * target // n + offsets,
                   0, target - 1)


class _GradientRMW(Workload):
    """Shared machinery for GZZ / GZP: conditional indirect accumulate."""

    suite = "UME"
    pattern = "RMW A[B[i]] if (D[i] >= F), i = F to G"
    target_divisor = 1   # GZP maps zones onto a smaller point space

    def generate(self, mem: HostMemory) -> None:
        self._remember(mem)
        z = self.scale
        target = max(z // self.target_divisor, 1024)
        self.target = target
        b = laplace_map(z, target, target // 24, self.rng)
        d = self.rng.integers(0, 100, z, dtype=np.int64)
        c = self.rng.integers(1, 1000, z, dtype=np.int64)
        self.b_base, self.b = mem.place_input("B", b)
        self.d_base, self.d = mem.place_input("D", d)
        self.c_base, self.c = mem.place_input("C", c)
        self.a_base = mem.place("A", np.zeros(target, dtype=np.int64))
        # Zone coordinate data read by the gradient computation itself.
        self.gx_base = mem.alloc("gx", z, DType.I64)

    def core_trace(self, part) -> Trace:
        # Per zone: D[i] and the gradient's coordinate load; where the
        # guard holds, B[i], C[i] and the atomic accumulate.  The guard
        # is a predicted branch: no data dependence.
        i = np.arange(part.start, part.stop)
        taken = self.d[i] >= THRESHOLD
        ops = 2 + 3 * taken
        at = np.cumsum(ops) - ops
        em = BulkEmitter(int(ops.sum()))
        em.load(at, self.d_base + 8 * i, pc=PC_EXTRA, extra=3)
        em.load(at + 1, self.gx_base + 8 * i, pc=PC_VALUE, extra=6)
        t, it = at[taken], i[taken]
        em.load(t + 2, self.b_base + 8 * it, pc=PC_INDEX, extra=1,
                tag=it)
        em.load(t + 3, self.c_base + 8 * it, pc=PC_VALUE, extra=1)
        em.rmw(t + 4, self.a_base + 8 * self.b[it], deps=(t + 2,),
               atomic=True, pc=PC_INDIRECT, extra=BASE_ADDR_CALC - 2,
               tag=it)
        em.compute(at[~taken] + 2, 2)
        return em.finish()

    def dx100_schedule(self, config: DX100Config, cores: int) -> list:
        items: list = []
        for lo, hi in chunk_bounds(self.scale, config.tile_elems):
            pb = ProgramBuilder(config)
            t_d = pb.sld(DType.I64, self.d_base, lo, hi)
            t_cond = pb.alus(DType.I64, AluOp.GE, t_d, THRESHOLD)
            t_b = pb.sld(DType.I64, self.b_base, lo, hi)
            t_c = pb.sld(DType.I64, self.c_base, lo, hi)
            pb.irmw(DType.I64, self.a_base, AluOp.ADD, t_b, t_c, tc=t_cond)
            pb.wait(t_b, t_c)
            items += pb.build()
            items.append(CoreWork(functools.partial(
                self._residual, lo, hi, cores)))
        return items

    def _residual(self, lo: int, hi: int, cores: int) -> list[Trace]:
        """Zones ``[lo, hi)``' core work: the next tile's contributions
        (coordinate load + gradient arithmetic + store of C).  The store
        is timing only: no trace writes host memory."""
        traces = []
        for part in split_static(range(lo, hi), cores):
            i = np.arange(part.start, part.stop)
            at = 2 * np.arange(len(i))
            em = BulkEmitter(2 * len(i))
            em.load(at, self.gx_base + 8 * i, pc=PC_VALUE, extra=6)
            em.store(at + 1, self.c_base + 8 * i, pc=PC_INDEX, extra=1)
            traces.append(em.finish())
        return traces

    def expected(self) -> dict[str, np.ndarray]:
        out = np.zeros(self.target, dtype=np.int64)
        taken = self.d >= THRESHOLD
        np.add.at(out, self.b[taken], self.c[taken])
        return {"A": out}

    def dmp_streams(self) -> dict[int, DMPStream]:
        return {PC_INDIRECT: (self.a_base, 8, self.b)}


class GZZ(_GradientRMW):
    name = "GZZ"
    target_divisor = 1


class GZP(_GradientRMW):
    name = "GZP"
    pattern = "RMW A[B[i]] if (D[i] >= F), i = F to G (zone-to-point)"
    target_divisor = 4


class _GradientIndirectLD(Workload):
    """Shared machinery for GZZI / GZPI: two-level conditional gather over
    indirect range loops."""

    suite = "UME"
    pattern = "LD A[B[C[j]]] if (D[j] >= F), j = H[K[i]] to H[K[i]+1]"
    target_divisor = 1

    def __init__(self, scale: int = 1 << 12, seed: int = 0,
                 zones: int = 1 << 17, corners: int = 6) -> None:
        super().__init__(scale, seed)
        self.zones = zones
        self.corners = corners

    def generate(self, mem: HostMemory) -> None:
        self._remember(mem)
        z = self.zones
        degrees = self.rng.integers(self.corners - 2, self.corners + 3, z)
        h = np.zeros(z + 1, dtype=np.int64)
        h[1:] = np.cumsum(degrees)
        total = int(h[-1])
        target = max(z // self.target_divisor, 1024)
        self.target = target
        c = self.rng.integers(0, z, total, dtype=np.int64)
        b = laplace_map(z, target, target // 24, self.rng)
        d = self.rng.integers(0, 100, total, dtype=np.int64)
        a = self.rng.integers(0, 1 << 20, target, dtype=np.int64)
        frontier = np.sort(self.rng.choice(
            z, size=self.scale, replace=False)).astype(np.int64)

        self.h_base, self.h = mem.place_input("H", h)
        self.c_base, self.c = mem.place_input("C", c)
        self.b_base, self.b = mem.place_input("B", b)
        self.d_base, self.d = mem.place_input("D", d)
        self.a_base, self.a = mem.place_input("A", a)
        self.k_base, self.frontier = mem.place_input("K", frontier)

    def non_roi_instructions(self) -> float:
        # The gradient loop iterates zone corners (~`corners` per zone).
        return 4.0 * self.scale * self.corners

    def core_trace(self, part) -> Trace:
        # Per frontier zone u: K[i], H[u]; per corner j: D[j], and
        # where the guard holds (speculated past: no data dependence)
        # C[j], B[C[j]] and A[B[C[j]]]; then the corner's gradient
        # arithmetic.
        i = np.arange(part.start, part.stop)
        u = self.frontier[i]
        owner, j = expand_ranges(self.h[u], self.h[u + 1])
        taken = self.d[j] >= THRESHOLD
        body = 1 + 3 * taken
        item_at, corner_at, n = nest_positions(len(i), owner, head=2,
                                               body=body)
        em = BulkEmitter(n)
        em.load(item_at, self.k_base + 8 * i, pc=PC_INDEX, extra=2)
        em.load(item_at + 1, self.h_base + 8 * u, pc=PC_EXTRA, extra=2)
        em.load(corner_at, self.d_base + 8 * j,
                deps=(item_at[owner] + 1,), pc=PC_VALUE, extra=2, tag=j)
        t, jt = corner_at[taken], j[taken]
        c = self.c[jt]
        em.load(t + 1, self.c_base + 8 * jt, pc=PC_INDEX, extra=1,
                tag=jt)
        em.load(t + 2, self.b_base + 8 * c, deps=(t + 1,), pc=PC_EXTRA,
                extra=2, tag=jt)
        em.load(t + 3, self.a_base + 8 * self.b[c], deps=(t + 2,),
                pc=PC_INDIRECT, extra=BASE_ADDR_CALC - 4, tag=jt)
        # Untaken guard: 2 instructions; every corner: 4 of gradient
        # arithmetic.  Both go to the op after the corner's last.
        em.compute(corner_at + body, 4 + 2 * ~taken)
        return em.finish()

    def dx100_schedule(self, config: DX100Config, cores: int) -> list:
        items: list = []
        lows = self.h[self.frontier]
        highs = self.h[self.frontier + 1]
        for f0, f1 in plan_range_chunks(lows, highs, config.tile_elems):
            if (highs[f0:f1] - lows[f0:f1]).sum() == 0:
                continue
            pb = ProgramBuilder(config)
            t_k = pb.sld(DType.I64, self.k_base, f0, f1)
            t_hlo = pb.ild(DType.I64, self.h_base, t_k)
            t_k1 = pb.alus(DType.I64, AluOp.ADD, t_k, 1)
            t_hhi = pb.ild(DType.I64, self.h_base, t_k1)
            t_outer, t_inner = pb.rng(t_hlo, t_hhi, outer_base=f0)
            t_d = pb.ild(DType.I64, self.d_base, t_inner)
            t_cond = pb.alus(DType.I64, AluOp.GE, t_d, THRESHOLD)
            t_c = pb.ild(DType.I64, self.c_base, t_inner, tc=t_cond)
            t_b = pb.ild(DType.I64, self.b_base, t_c, tc=t_cond)
            t_a = pb.ild(DType.I64, self.a_base, t_b, tc=t_cond)
            pb.wait(t_a)
            chunk_items = pb.build()
            expect = self._expected_chunk(f0, f1)
            n_before = sum(isinstance(x, Instr) for x in items)
            n_chunk = sum(isinstance(x, Instr) for x in chunk_items)
            self.expect_gather(n_before + n_chunk - 1, expect)
            items += chunk_items
            count = int((highs[f0:f1] - lows[f0:f1]).sum())
            items.append(CoreWork(functools.partial(
                self._residual, count, pb.spd_addr(t_a), cores)))
        return items

    @staticmethod
    def _residual(count: int, spd: int, cores: int) -> list[Trace]:
        """A chunk's core work: consume its ``count``-element packed tile
        at ``spd`` and compute gradients."""
        traces = []
        for part in split_static(range(count), cores):
            e = np.arange(part.start, part.stop)
            em = BulkEmitter(len(e))
            em.load(np.arange(len(e)), spd + 4 * e, size=4, pc=PC_SPD,
                    extra=4)
            traces.append(em.finish())
        return traces

    def _expected_chunk(self, f0: int, f1: int) -> np.ndarray:
        parts = []
        for u in self.frontier[f0:f1].tolist():
            j = np.arange(int(self.h[u]), int(self.h[u + 1]))
            vals = np.where(self.d[j] >= THRESHOLD,
                            self.a[self.b[self.c[j]]], 0)
            parts.append(vals)
        return np.concatenate(parts) if parts else np.zeros(0, np.int64)

    def expected(self) -> dict[str, np.ndarray]:
        return {}

    def dmp_streams(self) -> dict[int, DMPStream]:
        return {PC_INDIRECT: (self.b_base, 8, self.c)}


class GZZI(_GradientIndirectLD):
    name = "GZZI"
    target_divisor = 1


class GZPI(_GradientIndirectLD):
    name = "GZPI"
    pattern = ("LD A[B[C[j]]] if (D[j] >= F), j = H[K[i]] to H[K[i]+1] "
               "(zone-to-point)")
    target_divisor = 4
