"""Hash-Join benchmark suite: parallel radix join partitioning.

PRH (histogram-based, Kim et al.): a histogram pass
(``hist[f(C[i])] += 1``) followed by a tuple scatter through partition
offsets (``A[B[f(C[i])]] = C[i]``), with the radix function
``f(C[i]) = (C[i] & F) >> G`` computed by the ALU unit (Table 1).

PRO (bucket-chaining, Manegold et al.): array-based linked lists — probes
walk ``payload[head[f(k)]]`` then ``payload[next[...]]``, the bulk
linked-list traversal the paper highlights (Section 4.1 Limitations).
"""

from __future__ import annotations

import numpy as np

from repro.common.config import DX100Config
from repro.common.types import AluOp, DType
from repro.core.trace import BulkEmitter, Trace
from repro.dx100.api import ProgramBuilder
from repro.dx100.hostmem import HostMemory
from repro.workloads.base import (
    BASE_ADDR_CALC, PC_EXTRA, PC_INDEX, PC_INDIRECT, PC_OUTPUT, PC_VALUE,
    DMPStream, Reference, Workload, chunk_bounds, key_counts, last_writer,
)

RADIX_SHIFT = 9


class RadixJoinHistogram(Workload):
    """PRH: histogram + scatter through partition offsets."""

    name = "PRH"
    suite = "Hash-Join"
    pattern = "ST A[B[f(C[i])]], f(C[i]) = (C[i] & F) >> G, i = F to G"
    # A core runs its histogram pass over its whole part, then its
    # scatter pass: one block.
    trace_block = None

    def __init__(self, scale: int = 1 << 16, seed: int = 0,
                 partitions: int = 1 << 13,
                 table_space: int = 1 << 20) -> None:
        super().__init__(scale, seed)
        self.partitions = partitions
        self.table_space = table_space
        self.mask = (partitions - 1) << RADIX_SHIFT

    def _radix(self, keys: np.ndarray) -> np.ndarray:
        return (keys & self.mask) >> RADIX_SHIFT

    def generate(self, mem: HostMemory) -> None:
        self._remember(mem)
        tuples = self.rng.integers(0, 1 << 30, self.scale, dtype=np.int64)
        # Partition base offsets scattered over the output table.
        offsets = (self.rng.permutation(self.partitions).astype(np.int64)
                   * (self.table_space // self.partitions))
        self.c_base, self.tuples = mem.place_input("C", tuples)
        self.radix = self._radix(self.tuples)
        self.hist_base = mem.place(
            "hist", np.zeros(self.partitions, dtype=np.int64))
        self.b_base, self.offsets = mem.place_input("B", offsets)
        self.a_base = mem.place(
            "A", np.zeros(self.table_space, dtype=np.int64))
        self.ones_base, _ = mem.place_input(
            "ones", np.broadcast_to(np.int64(1), self.scale))

    def core_trace(self, part) -> Trace:
        # The histogram pass over the part (key, atomic count), then
        # the scatter pass (key, partition offset, tuple store).
        i = np.arange(part.start, part.stop)
        radix = self.radix[i]
        hist = 2 * np.arange(len(i))
        scat = 2 * len(i) + 3 * np.arange(len(i))
        em = BulkEmitter(5 * len(i))
        em.load(hist, self.c_base + 8 * i, pc=PC_INDEX, extra=3)
        em.rmw(hist + 1, self.hist_base + 8 * radix, deps=(hist,),
               atomic=True, pc=PC_VALUE, extra=3, tag=i)
        em.load(scat, self.c_base + 8 * i, pc=PC_INDEX, extra=3, tag=i)
        em.load(scat + 1, self.b_base + 8 * radix, deps=(scat,),
                pc=PC_EXTRA, extra=2, tag=i)
        em.store(scat + 2, self.a_base + 8 * self.offsets[radix],
                 deps=(scat + 1,), pc=PC_INDIRECT,
                 extra=BASE_ADDR_CALC - 4, tag=i)
        return em.finish()

    def dx100_schedule(self, config: DX100Config, cores: int) -> list:
        items: list = []
        for lo, hi in chunk_bounds(self.scale, config.tile_elems):
            pb = ProgramBuilder(config)
            t_c = pb.sld(DType.I64, self.c_base, lo, hi)
            t_and = pb.alus(DType.I64, AluOp.AND, t_c, self.mask)
            t_f = pb.alus(DType.I64, AluOp.SHR, t_and, RADIX_SHIFT)
            t_one = pb.sld(DType.I64, self.ones_base, lo, hi)
            pb.irmw(DType.I64, self.hist_base, AluOp.ADD, t_f, t_one)
            t_b = pb.ild(DType.I64, self.b_base, t_f)
            pb.ist(DType.I64, self.a_base, t_b, t_c)
            pb.wait(t_c)
            items += pb.build()
        return items

    def expected(self) -> dict[str, Reference]:
        return {"hist": key_counts(self.radix, np.int64),
                "A": last_writer(self.offsets[self.radix], self.tuples)}

    def dmp_streams(self) -> dict[int, DMPStream]:
        return {PC_INDIRECT: (self.a_base, 8, self.offsets[self.radix])}


class RadixJoinChaining(Workload):
    """PRO: probe phase over array-based bucket chains (2 hops)."""

    name = "PRO"
    suite = "Hash-Join"
    pattern = "ST A[B[f(C[i])]] (bucket chaining: nodes[next_idx[i]])"

    def __init__(self, scale: int = 1 << 16, seed: int = 0,
                 buckets: int = 1 << 15) -> None:
        super().__init__(scale, seed)
        self.buckets = buckets
        self.mask = (buckets - 1) << RADIX_SHIFT

    def _radix(self, keys: np.ndarray) -> np.ndarray:
        return (keys & self.mask) >> RADIX_SHIFT

    def generate(self, mem: HostMemory) -> None:
        self._remember(mem)
        n_build = 2 * self.buckets  # exactly two tuples per bucket
        order = self.rng.permutation(n_build).astype(np.int64)
        head = order[:self.buckets]
        nxt = np.full(n_build, -1, dtype=np.int64)
        nxt[head] = order[self.buckets:]
        payload = self.rng.integers(0, 1 << 20, n_build, dtype=np.int64)
        probes = self.rng.integers(0, 1 << 30, self.scale, dtype=np.int64)

        self.head_base, self.head = mem.place_input("head", head)
        self.next_base, self.next = mem.place_input("next", nxt)
        self.pay_base, self.payload = mem.place_input("payload", payload)
        self.probe_base, self.probes = mem.place_input("probes", probes)
        self.probe_radix = self._radix(self.probes)
        self.res_base = mem.alloc("result", self.scale, DType.I64)

    def core_trace(self, part) -> Trace:
        # Per probe: key, head[h], then payload and next of node n0,
        # payload of node n1, and the result store.
        i = np.arange(part.start, part.stop)
        h = self.probe_radix[i]
        n0 = self.head[h]
        n1 = self.next[n0]
        at = 6 * np.arange(len(i))
        em = BulkEmitter(6 * len(i))
        em.load(at, self.probe_base + 8 * i, pc=PC_INDEX, extra=3, tag=i)
        em.load(at + 1, self.head_base + 8 * h, deps=(at,),
                pc=PC_INDIRECT, extra=3, tag=i)
        em.load(at + 2, self.pay_base + 8 * n0, deps=(at + 1,),
                pc=PC_VALUE, extra=2, tag=i)
        em.load(at + 3, self.next_base + 8 * n0, deps=(at + 1,),
                pc=PC_EXTRA, extra=2, tag=i)
        em.load(at + 4, self.pay_base + 8 * n1, deps=(at + 3,),
                pc=PC_VALUE, extra=2, tag=i)
        em.store(at + 5, self.res_base + 8 * i, deps=(at + 2, at + 4),
                 pc=PC_OUTPUT, extra=3)
        return em.finish()

    def dx100_schedule(self, config: DX100Config, cores: int) -> list:
        items: list = []
        for lo, hi in chunk_bounds(self.scale, config.tile_elems):
            pb = ProgramBuilder(config)
            t_p = pb.sld(DType.I64, self.probe_base, lo, hi)
            t_and = pb.alus(DType.I64, AluOp.AND, t_p, self.mask)
            t_h = pb.alus(DType.I64, AluOp.SHR, t_and, RADIX_SHIFT)
            t_n0 = pb.ild(DType.I64, self.head_base, t_h)
            t_p0 = pb.ild(DType.I64, self.pay_base, t_n0)
            t_n1 = pb.ild(DType.I64, self.next_base, t_n0)
            t_p1 = pb.ild(DType.I64, self.pay_base, t_n1)
            t_sum = pb.aluv(DType.I64, AluOp.ADD, t_p0, t_p1)
            pb.sst(DType.I64, self.res_base, t_sum, lo, hi)
            pb.wait(t_sum)
            items += pb.build()
        return items

    def expected(self) -> dict[str, np.ndarray]:
        n0 = self.head[self.probe_radix]
        n1 = self.next[n0]
        return {"result": self.payload[n0] + self.payload[n1]}

    def dmp_streams(self) -> dict[int, DMPStream]:
        return {PC_INDIRECT: (self.head_base, 8, self.probe_radix)}

