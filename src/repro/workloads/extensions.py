"""Extension workloads beyond the paper's evaluated set.

The paper's footnote 1 notes DX100 also accelerates the *bucket-based* IS
algorithm (the evaluation disables buckets); ``IntegerSortBucketed``
implements that full sort.  ``ConjugateGradientF64`` is the CG kernel on
real double-precision data, exercising the F64 datapath end to end.
``ConnectedComponents`` is a Shiloach-Vishkin label-propagation round —
an IRMW/MIN kernel from the introduction's workload list.
"""

from __future__ import annotations

import numpy as np

from repro.common.config import DX100Config
from repro.common.types import AluOp, DType
from repro.core.trace import Trace, TraceBuilder
from repro.dx100.api import ProgramBuilder
from repro.dx100.hostmem import HostMemory
from repro.dx100.isa import Instr
from repro.dx100.range_fuser import plan_range_chunks
from repro.workloads.base import (
    BASE_ADDR_CALC, PC_EXTRA, PC_INDEX, PC_INDIRECT, PC_SPD, PC_VALUE,
    CoreWork, DMPStream, Workload, chunk_bounds,
)

BUCKET_SHIFT = 10


class IntegerSortBucketed(Workload):
    """Full bucket sort of integer keys (the NAS IS algorithm with buckets).

    Three phases per the NAS reference: (1) bucket histogram — IRMW;
    (2) prefix sums on the host (cheap scalar work); (3) key permutation —
    the scatter position is ``offsets[bucket(K[i])] + rank_i``, computed
    with the ALU (bucket extraction) + ILD (offset gather) + ALUV (rank
    add) + IST (the permute).  Validation: the output is the stably
    bucket-sorted key array.
    """

    name = "IS-bucketed"
    suite = "NAS"
    pattern = "ST A[B[f(C[i])] + r], f = C[i] >> S, i = F to G"
    # A core runs its histogram phase over its whole part, then its
    # permute phase: one block.
    trace_block = None

    def __init__(self, scale: int = 1 << 14, seed: int = 0,
                 key_bits: int = 20) -> None:
        super().__init__(scale, seed)
        self.key_bits = key_bits
        self.buckets = 1 << (key_bits - BUCKET_SHIFT)

    def generate(self, mem: HostMemory) -> None:
        self._remember(mem)
        n = self.scale
        keys = self.rng.integers(0, 1 << self.key_bits, n, dtype=np.int64)
        self.bucket_of = keys >> BUCKET_SHIFT
        counts = np.bincount(self.bucket_of, minlength=self.buckets)
        offsets = np.zeros(self.buckets, dtype=np.int64)
        offsets[1:] = np.cumsum(counts)[:-1]
        # rank_i = how many earlier keys share the bucket (stable order).
        ranks = np.zeros(n, dtype=np.int64)
        seen: dict[int, int] = {}
        for i, b in enumerate(self.bucket_of.tolist()):
            ranks[i] = seen.get(b, 0)
            seen[b] = ranks[i] + 1

        self.k_base, self.keys = mem.place_input("K", keys)
        self.hist_base = mem.place(
            "hist", np.zeros(self.buckets, dtype=np.int64))
        self.off_base, self.offsets = mem.place_input("offsets", offsets)
        self.rank_base, self.ranks = mem.place_input("ranks", ranks)
        self.out_base = mem.place("out", np.zeros(n, dtype=np.int64))
        self.ones_base, _ = mem.place_input(
            "ones", np.broadcast_to(np.int64(1), n))

    def core_trace(self, part) -> Trace:
        tb = TraceBuilder()
        for i in part:
            # Phase 1: histogram.
            key = tb.load(self.k_base + 8 * i, pc=PC_INDEX, extra=2,
                          tag=i)
            tb.rmw(self.hist_base + 8 * int(self.bucket_of[i]),
                   deps=(key,), atomic=True, pc=PC_VALUE, extra=2,
                   tag=i)
        for i in part:
            # Phase 3: permute (rank held in a register in real code).
            key = tb.load(self.k_base + 8 * i, pc=PC_INDEX, extra=2,
                          tag=i)
            off = tb.load(self.off_base + 8 * int(self.bucket_of[i]),
                          deps=(key,), pc=PC_EXTRA, extra=2, tag=i)
            pos = int(self.offsets[self.bucket_of[i]]
                      + self.ranks[i])
            tb.store(self.out_base + 8 * pos, deps=(off,),
                     pc=PC_INDIRECT, extra=BASE_ADDR_CALC - 2, tag=i)
        return tb.finish()

    def dx100_schedule(self, config: DX100Config, cores: int) -> list:
        items: list = []
        for lo, hi in chunk_bounds(self.scale, config.tile_elems):
            pb = ProgramBuilder(config)
            t_k = pb.sld(DType.I64, self.k_base, lo, hi)
            t_b = pb.alus(DType.I64, AluOp.SHR, t_k, BUCKET_SHIFT)
            t_one = pb.sld(DType.I64, self.ones_base, lo, hi)
            pb.irmw(DType.I64, self.hist_base, AluOp.ADD, t_b, t_one)
            t_off = pb.ild(DType.I64, self.off_base, t_b)
            t_rank = pb.sld(DType.I64, self.rank_base, lo, hi)
            t_pos = pb.aluv(DType.I64, AluOp.ADD, t_off, t_rank)
            pb.ist(DType.I64, self.out_base, t_pos, t_k)
            pb.wait(t_k)
            items += pb.build()
        return items

    def expected(self) -> dict[str, np.ndarray]:
        order = np.argsort(self.bucket_of, kind="stable")
        hist = np.bincount(self.bucket_of, minlength=self.buckets)
        return {"out": self.keys[order], "hist": hist.astype(np.int64)}

    def dmp_streams(self) -> dict[int, DMPStream]:
        return {PC_INDIRECT: (self.out_base, 8,
                              self.offsets[self.bucket_of] + self.ranks)}


class ConjugateGradientF64(Workload):
    """CG SpMV on double-precision data, validated with tolerances.

    The evaluated workloads use integer data so that DX100's reordered
    updates compare exactly; this extension runs the F64 datapath (SLD/ILD
    of f64 tiles) and validates the gathered values bitwise (gathers are
    order-independent) while the residual dot products would be the cores'
    job, as in the paper.
    """

    name = "CG-f64"
    suite = "NAS"
    pattern = "LD A[B[j]], j = H[i] to H[i+1] (float64)"

    def __init__(self, scale: int = 1 << 10, seed: int = 0,
                 avg_nnz: int = 16, columns: int = 1 << 16) -> None:
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
        self.h_base, self.h = mem.place_input("H", h)
        self.col_base, self.col = mem.place_input("col", col)
        self.x_base, self.x = mem.place_input(
            "x", self.rng.standard_normal(self.columns))

    def core_trace(self, rows) -> Trace:
        tb = TraceBuilder()
        for i in rows:
            tb.load(self.h_base + 8 * i, pc=PC_EXTRA, extra=2)
            for j in range(int(self.h[i]), int(self.h[i + 1])):
                cidx = tb.load(self.col_base + 8 * j, pc=PC_INDEX,
                               extra=1, tag=j)
                tb.load(self.x_base + 8 * int(self.col[j]),
                        deps=(cidx,), pc=PC_INDIRECT,
                        extra=BASE_ADDR_CALC, tag=j)
        return tb.finish()

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
            t_x = pb.ild(DType.F64, self.x_base, t_col)
            pb.wait(t_x)
            chunk_items = pb.build()
            n_before = sum(isinstance(x, Instr) for x in items)
            n_chunk = sum(isinstance(x, Instr) for x in chunk_items)
            j0, j1 = int(self.h[r0]), int(self.h[r1])
            self.expect_gather(n_before + n_chunk - 1,
                               self.x[self.col[j0:j1]])
            items += chunk_items
        return items

    def expected(self) -> dict[str, np.ndarray]:
        return {}

    def dmp_streams(self) -> dict[int, DMPStream]:
        return {PC_INDIRECT: (self.x_base, 8, self.col)}


class ConnectedComponents(Workload):
    """One label-propagation round of Shiloach-Vishkin connected components
    (cited in the paper's introduction as a target workload class).

    ``label[dst] = min(label[dst], label[src])`` over every edge — an
    IRMW/MIN kernel, exercising the reorderable-minimum datapath.  The
    baseline needs an atomic compare-exchange loop per edge; DX100's
    exclusive-writer IRMW needs none.
    """

    name = "CC"
    suite = "GAP"
    pattern = "RMW(min) A[B[j]], j = H[i] to H[i+1]"

    def __init__(self, scale: int = 1 << 12, seed: int = 0,
                 nodes: int = 1 << 16, degree: int = 8) -> None:
        super().__init__(scale, seed)
        self.nodes = nodes
        self.degree = degree

    def generate(self, mem: HostMemory) -> None:
        from repro.workloads.gap import make_uniform_csr
        self._remember(mem)
        h, adj = make_uniform_csr(self.nodes, self.degree, self.rng)
        labels = self.rng.permutation(self.nodes).astype(np.int64)
        self.h_base, self.h = mem.place_input("H", h)
        self.adj_base, self.adj = mem.place_input("adj", adj)
        # ``labels`` is updated in place; the unchanged ``src_labels``
        # input is its pristine copy.
        self.src_label_base, self.labels0 = mem.place_input("src_labels",
                                                            labels)
        self.label_base = mem.place("labels", labels)

    def core_trace(self, part) -> Trace:
        tb = TraceBuilder()
        for u in part:
            hk = tb.load(self.h_base + 8 * u, pc=PC_EXTRA, extra=2)
            lu = tb.load(self.src_label_base + 8 * u, pc=PC_VALUE,
                         extra=1)
            for j in range(int(self.h[u]), int(self.h[u + 1])):
                aj = tb.load(self.adj_base + 8 * j, deps=(hk,),
                             pc=PC_INDEX, extra=1, tag=j)
                # CAS-min loop: load, compare, locked exchange.
                tb.rmw(self.label_base + 8 * int(self.adj[j]),
                       deps=(aj, lu), atomic=True, pc=PC_INDIRECT,
                       extra=BASE_ADDR_CALC, tag=j)
        return tb.finish()

    def dx100_schedule(self, config: DX100Config, cores: int) -> list:
        lows, highs = self.h[:self.scale], self.h[1:self.scale + 1]
        items: list = []
        for r0, r1 in plan_range_chunks(lows, highs, config.tile_elems):
            if self.h[r1] == self.h[r0]:
                continue
            pb = ProgramBuilder(config)
            t_lo = pb.sld(DType.I64, self.h_base, r0, r1)
            t_hi = pb.sld(DType.I64, self.h_base, r0 + 1, r1 + 1)
            t_outer, t_inner = pb.rng(t_lo, t_hi, outer_base=r0)
            t_adj = pb.ild(DType.I64, self.adj_base, t_inner)
            t_lu = pb.ild(DType.I64, self.src_label_base, t_outer)
            pb.irmw(DType.I64, self.label_base, AluOp.MIN, t_adj, t_lu)
            pb.wait(t_adj)
            items += pb.build()
        return items

    def expected(self) -> dict[str, np.ndarray]:
        labels = self.labels0.copy()
        for u in range(self.scale):
            j0, j1 = int(self.h[u]), int(self.h[u + 1])
            np.minimum.at(labels, self.adj[j0:j1], self.labels0[u])
        return {"labels": labels}

    def non_roi_instructions(self) -> float:
        """Edge-proportional setup, as for the other graph kernels."""
        return 4.0 * self.scale * self.degree

    def dmp_streams(self) -> dict[int, DMPStream]:
        return {PC_INDIRECT: (self.label_base, 8, self.adj)}
