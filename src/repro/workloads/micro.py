"""The five microbenchmarks of Section 6.1 (Figure 8).

All-Hit scenario (Figure 8a): streaming indices (``B[i] = i``) and warmed
caches isolate DX100's instruction-count and atomics advantages from its
bandwidth advantages.  All-Miss scenario (Figure 8 b/c): 16K unique indices
spread one word per cache line across rows/banks/channels, permuted to
synthesize target row-buffer hit rates and channel/bank-group interleaving
for the baseline.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.common.config import DRAMConfig, DX100Config
from repro.common.types import AluOp, DType
from repro.core.trace import Trace, TraceBuilder, split_static
from repro.dram.address import AddressMapper
from repro.dx100.api import ProgramBuilder
from repro.dx100.hostmem import HostMemory
from repro.workloads.base import (
    BASE_ADDR_CALC, PC_INDEX, PC_INDIRECT, PC_OUTPUT, PC_SPD, PC_VALUE,
    CoreWork, DMPStream, Reference, Workload, chunk_bounds, last_writer,
)


class _GatherBase(Workload):
    """Shared machinery: C[i] = A[B[i]] with B[i] = i (all-hit)."""

    suite = "micro"
    pattern = "LD A[B[i]], i = F to G"

    def generate(self, mem: HostMemory) -> None:
        self._remember(mem)
        n = self.scale
        a = self.rng.integers(0, 1 << 30, n).astype(np.uint32)
        self.a_base, self.a = mem.place_input("A", a)
        self.b_base, self.b = mem.place_input(
            "B", np.arange(n, dtype=np.uint32))
        self.c_base = mem.alloc("C", n, DType.U32)

    def warm_lines(self) -> list[int]:
        lines = []
        for base, nbytes in ((self.a_base, self.a.nbytes),
                             (self.b_base, self.b.nbytes),
                             (self.c_base, self.a.nbytes)):
            lines += list(range(base, base + nbytes, 64))
        return lines

    def core_trace(self, part) -> Trace:
        tb = TraceBuilder()
        for i in part:
            idx = tb.load(self.b_base + 4 * i, size=4, pc=PC_INDEX,
                          extra=1, tag=i)
            ind = tb.load(self.a_base + 4 * int(self.b[i]), size=4,
                          deps=(idx,), pc=PC_INDIRECT,
                          extra=BASE_ADDR_CALC, tag=i)
            tb.store(self.c_base + 4 * i, size=4, deps=(ind,),
                     pc=PC_OUTPUT, extra=3)
        return tb.finish()

    def expected(self) -> dict[str, np.ndarray]:
        return {"C": self.a[self.b]}

    def dmp_streams(self) -> dict[int, DMPStream]:
        return {PC_INDIRECT: (self.a_base, 4, self.b)}


class GatherSPD(_GatherBase):
    """Offload only the gather; cores read the packed tile from the SPD."""

    name = "gather-spd"

    def dx100_schedule(self, config: DX100Config, cores: int) -> list:
        from repro.dx100.scratchpad import SPD_BASE

        pb = ProgramBuilder(config)
        items: list = []
        for lo, hi in chunk_bounds(self.scale, config.tile_elems):
            pb.items.clear()
            t_b = pb.sld(DType.U32, self.b_base, lo, hi)
            t_p = pb.ild(DType.U32, self.a_base, t_b)
            pb.wait(t_p)
            items += pb.build()
            spd = SPD_BASE + t_p * config.tile_elems * 4
            items.append(CoreWork(functools.partial(
                self._residual, lo, hi, spd, cores)))
            pb.free_tile(t_b)
            pb.free_tile(t_p)
        # The residual core stores are timing-only; apply their data effect.
        self.mem.view("C")[:] = self.a[self.b]
        return items

    def _residual(self, lo: int, hi: int, spd: int,
                  cores: int) -> list[Trace]:
        """Elements ``[lo, hi)``' core work: each core streams its share
        of the packed tile from the SPD at ``spd`` and stores it to
        ``C[i]``."""
        traces = []
        for part in split_static(range(lo, hi), cores):
            tb = TraceBuilder()
            for i in part:
                tb.load(spd + 4 * (i - lo), size=4, extra=1, pc=PC_SPD)
                tb.store(self.c_base + 4 * i, size=4, extra=1, pc=PC_OUTPUT)
            traces.append(tb.finish())
        return traces


class GatherFull(_GatherBase):
    """Whole kernel offloaded: SLD + ILD + SST; cores only issue."""

    name = "gather-full"

    def dx100_schedule(self, config: DX100Config, cores: int) -> list:
        pb = ProgramBuilder(config)
        items: list = []
        for lo, hi in chunk_bounds(self.scale, config.tile_elems):
            pb.items.clear()
            t_b = pb.sld(DType.U32, self.b_base, lo, hi)
            t_p = pb.ild(DType.U32, self.a_base, t_b)
            pb.sst(DType.U32, self.c_base, t_p, lo, hi)
            pb.wait(t_p)
            items += pb.build()
            pb.free_tile(t_b)
            pb.free_tile(t_p)
        return items


class _RMWBase(Workload):
    """A[B[i]] += C[i] with streaming indices (all-hit)."""

    suite = "micro"
    pattern = "RMW A[B[i]], i = F to G"
    atomic = True

    def generate(self, mem: HostMemory) -> None:
        self._remember(mem)
        n = self.scale
        # A is updated in place: keep its pristine copy.
        self.a0 = self.rng.integers(0, 1000, n, dtype=np.int64)
        c = self.rng.integers(1, 10, n, dtype=np.int64)
        self.a_base = mem.place("A", self.a0)
        self.b_base, self.b = mem.place_input(
            "B", np.arange(n, dtype=np.int64))
        self.c_base, self.c = mem.place_input("C", c)

    def warm_lines(self) -> list[int]:
        out = []
        for base, nbytes in ((self.a_base, self.a0.nbytes),
                             (self.b_base, self.b.nbytes),
                             (self.c_base, self.c.nbytes)):
            out += list(range(base, base + nbytes, 64))
        return out

    def core_trace(self, part) -> Trace:
        tb = TraceBuilder()
        for i in part:
            idx = tb.load(self.b_base + 8 * i, pc=PC_INDEX, extra=1,
                          tag=i)
            val = tb.load(self.c_base + 8 * i, pc=PC_VALUE, extra=1)
            tb.rmw(self.a_base + 8 * int(self.b[i]), deps=(idx, val),
                   atomic=self.atomic, pc=PC_INDIRECT,
                   extra=BASE_ADDR_CALC, tag=i)
        return tb.finish()

    def dx100_schedule(self, config: DX100Config, cores: int) -> list:
        pb = ProgramBuilder(config)
        items: list = []
        for lo, hi in chunk_bounds(self.scale, config.tile_elems):
            pb.items.clear()
            t_b = pb.sld(DType.I64, self.b_base, lo, hi)
            t_c = pb.sld(DType.I64, self.c_base, lo, hi)
            pb.irmw(DType.I64, self.a_base, AluOp.ADD, t_b, t_c)
            pb.wait(t_b, t_c)
            items += pb.build()
            pb.free_tile(t_b)
            pb.free_tile(t_c)
        return items

    def expected(self) -> dict[str, np.ndarray]:
        result = self.a0.copy()
        np.add.at(result, self.b, self.c)
        return {"A": result}


class RMWAtomic(_RMWBase):
    name = "rmw-atomic"
    atomic = True


class RMWNoAtom(_RMWBase):
    """Correctness-ignoring baseline (no fences) — still loses to DX100."""

    name = "rmw-noatom"
    atomic = False


class Scatter(Workload):
    """A[B[i]] = C[i]; the baseline cannot parallelize (WAW hazards)."""

    name = "scatter"
    suite = "micro"
    pattern = "ST A[B[i]], i = F to G"
    single_core_baseline = True

    def generate(self, mem: HostMemory) -> None:
        self._remember(mem)
        n = self.scale
        b = self.rng.permutation(n).astype(np.int64)
        c = self.rng.integers(0, 1 << 20, n, dtype=np.int64)
        self.a_base = mem.place("A", np.zeros(n, dtype=np.int64))
        self.b_base, self.b = mem.place_input("B", b)
        self.c_base, self.c = mem.place_input("C", c)

    def warm_lines(self) -> list[int]:
        return list(range(self.b_base, self.c_base + self.c.nbytes, 64))

    def core_trace(self, part) -> Trace:
        tb = TraceBuilder()
        for i in part:
            idx = tb.load(self.b_base + 8 * i, pc=PC_INDEX, extra=1, tag=i)
            val = tb.load(self.c_base + 8 * i, pc=PC_VALUE, extra=1)
            tb.store(self.a_base + 8 * int(self.b[i]), deps=(idx, val),
                     pc=PC_INDIRECT, extra=BASE_ADDR_CALC, tag=i)
        return tb.finish()
    def dx100_schedule(self, config: DX100Config, cores: int) -> list:
        pb = ProgramBuilder(config)
        items: list = []
        for lo, hi in chunk_bounds(self.scale, config.tile_elems):
            pb.items.clear()
            t_b = pb.sld(DType.I64, self.b_base, lo, hi)
            t_c = pb.sld(DType.I64, self.c_base, lo, hi)
            pb.ist(DType.I64, self.a_base, t_b, t_c)
            pb.wait(t_b, t_c)
            items += pb.build()
            pb.free_tile(t_b)
            pb.free_tile(t_c)
        return items

    def expected(self) -> dict[str, Reference]:
        return {"A": last_writer(self.b, self.c)}

    def dmp_streams(self) -> dict[int, DMPStream]:
        return {PC_INDIRECT: (self.a_base, 8, self.b)}


class GatherAllMiss(Workload):
    """Figure 8(b,c): unique indices with synthesized RBH / CHI / BGI.

    One word per cache line, spread over ``rows_per_bank`` rows of every
    bank.  The index *order* controls the baseline's locality; DX100
    re-derives its own order, so its bandwidth stays flat.
    """

    name = "gather-allmiss"
    suite = "micro"
    pattern = "LD A[B[i]], i = F to G (unique indices)"

    def __init__(self, scale: int = 0, seed: int = 0, rbh: float = 0.0,
                 chi: bool = True, bgi: bool = True,
                 rows_per_bank: int = 4) -> None:
        super().__init__(scale, seed)
        if not 0.0 <= rbh <= 1.0:
            raise ValueError("rbh must be within [0, 1]")
        self.rbh = rbh
        self.chi = chi
        self.bgi = bgi
        self.rows_per_bank = rows_per_bank

    def generate(self, mem: HostMemory) -> None:
        self._remember(mem)
        dram = DRAMConfig()
        mapper = AddressMapper(dram)
        row_span = 1 << (mapper.total_bits - _field_width(mapper, "row"))
        # Place A aligned to a full row span so rows are not straddled.
        span_bytes = self.rows_per_bank * row_span
        a = self.rng.integers(0, 1 << 30, span_bytes // 4).astype(np.uint32)
        self.a_base, self.a = mem.place_input("A", a, align=row_span)
        row0 = (self.a_base >> _row_shift(mapper)) & (dram.rows - 1)

        # Per-bank queues of line addresses, in runs of length L per row.
        run = 1_000_000 if self.rbh >= 1.0 else max(
            1, round(1.0 / (1.0 - self.rbh)))
        per_bank: dict[tuple[int, int], list[int]] = {}
        for ch in range(dram.channels):
            for bg in range(dram.bankgroups):
                for ba in range(dram.banks_per_group):
                    addrs = []
                    cols = list(range(dram.columns))
                    cursor = [0] * self.rows_per_bank
                    r = 0
                    total = self.rows_per_bank * dram.columns
                    while len(addrs) < total:
                        for _ in range(run):
                            if cursor[r] >= dram.columns:
                                break
                            addrs.append(mapper.compose(
                                channel=ch, bankgroup=bg, bank=ba,
                                row=row0 + r, column=cursor[r]))
                            cursor[r] += 1
                        nxt = (r + 1) % self.rows_per_bank
                        while cursor[nxt] >= dram.columns and \
                                len(addrs) < total:
                            nxt = (nxt + 1) % self.rows_per_bank
                        r = nxt
                    per_bank[(ch, bg * dram.banks_per_group + ba)] = addrs

        order = self._merge(per_bank, dram)
        self.addrs = np.array(order, dtype=np.int64)
        self.b_base, self.indices = mem.place_input(
            "B", (self.addrs - self.a_base) // 4)
        self.n = len(self.indices)
        self.c_base = mem.alloc("C", self.n, DType.U32)

    def _merge(self, per_bank, dram) -> list[int]:
        """Merge per-bank queues according to the CHI / BGI settings.

        Banks *within* a bank group always interleave (tRRD-level
        parallelism exists even in the worst case); CHI/BGI control whether
        consecutive accesses alternate channels and bank groups.
        """
        nb = dram.banks_per_group

        def round_robin(queues: list[list[int]]) -> list[int]:
            out: list[int] = []
            cursors = [0] * len(queues)
            remaining = sum(len(q) for q in queues)
            while remaining:
                for i, q in enumerate(queues):
                    if cursors[i] < len(q):
                        out.append(q[cursors[i]])
                        cursors[i] += 1
                        remaining -= 1
            return out

        def group(ch: int, bg: int) -> list[int]:
            """One (channel, bankgroup) stream with its banks interleaved."""
            return round_robin([per_bank[(ch, bg * nb + ba)]
                                for ba in range(nb)])

        channels = range(dram.channels)
        bankgroups = range(dram.bankgroups)
        if self.chi and self.bgi:
            return round_robin([group(ch, bg)
                                for bg in bankgroups for ch in channels])
        if self.chi and not self.bgi:
            out: list[int] = []
            for bg in bankgroups:
                out += round_robin([group(ch, bg) for ch in channels])
            return out
        if not self.chi and self.bgi:
            out = []
            for ch in channels:
                out += round_robin([group(ch, bg) for bg in bankgroups])
            return out
        out = []
        for ch in channels:
            for bg in bankgroups:
                out += group(ch, bg)
        return out

    def warm_lines(self) -> list[int]:
        """All-Miss means A misses; the constant index set B (and the output
        C) are cache-resident, so only the indirect traffic reaches DRAM."""
        lines = list(range(self.b_base, self.b_base + self.indices.nbytes,
                           64))
        lines += list(range(self.c_base, self.c_base + 4 * self.n, 64))
        return lines

    def trace_parts(self, cores: int) -> list[np.ndarray]:
        # Partition iterations by DRAM *bank* so concurrent cores do not
        # thrash each other's open rows — otherwise the synthesized RBH
        # property would be destroyed by the static split, not by the
        # index order under study.
        mapper = AddressMapper(DRAMConfig())
        bank_of = mapper.map_arrays(self.addrs)["bank"]
        return [np.nonzero(bank_of % cores == c)[0] for c in range(cores)]

    def core_trace(self, part) -> Trace:
        tb = TraceBuilder()
        for i in part.tolist():
            idx = tb.load(self.b_base + 8 * i, pc=PC_INDEX, extra=1, tag=i)
            ind = tb.load(int(self.addrs[i]), size=4, deps=(idx,),
                          pc=PC_INDIRECT, extra=BASE_ADDR_CALC, tag=i)
            tb.store(self.c_base + 4 * i, size=4, deps=(ind,),
                     pc=PC_OUTPUT, extra=3)
        return tb.finish()
    def dx100_schedule(self, config: DX100Config, cores: int) -> list:
        pb = ProgramBuilder(config)
        items: list = []
        for lo, hi in chunk_bounds(self.n, config.tile_elems):
            pb.items.clear()
            t_b = pb.sld(DType.I64, self.b_base, lo, hi)
            t_p = pb.ild(DType.U32, self.a_base, t_b)
            pb.sst(DType.U32, self.c_base, t_p, lo, hi)
            pb.wait(t_p)
            items += pb.build()
            pb.free_tile(t_b)
            pb.free_tile(t_p)
        return items

    def expected(self) -> dict[str, np.ndarray]:
        return {"C": self.a[self.indices].astype(np.uint32)}

    def dmp_streams(self) -> dict[int, DMPStream]:
        return {PC_INDIRECT: (0, 1, self.addrs)}


def _row_shift(mapper: AddressMapper) -> int:
    for name, shift, width in mapper._fields:
        if name == "row":
            return shift
    raise KeyError("row")


def _field_width(mapper: AddressMapper, field: str) -> int:
    for name, shift, width in mapper._fields:
        if name == field:
            return width
    raise KeyError(field)
