"""GAP benchmark suite: BFS, PageRank, Betweenness Centrality.

One iteration of each algorithm over a uniform random graph in CSR form
(the paper uses 2^20-2^22 nodes at average degree 15; we scale the node
count down and process a frontier/node slice sized to the Python simulator,
preserving the Table 1 patterns):

* BFS — ``ST parent[adj[j]] = u if dist[adj[j]] == INF``,
  indirect range loop ``j = H[K[i]] .. H[K[i]+1]``;
* PR  — ``RMW score_new[adj[j]] += contrib[i]``, direct range loop;
* BC  — ``RMW sigma[adj[j]] += sigma[u] if depth[adj[j]] == d+1``,
  indirect range loop.
"""

from __future__ import annotations

import numpy as np

from repro.common.config import DX100Config
from repro.common.types import AluOp, DType
from repro.core.trace import BulkEmitter, Trace
from repro.dx100.api import ProgramBuilder
from repro.dx100.hostmem import HostMemory
from repro.dx100.range_fuser import plan_range_chunks
from repro.workloads.base import (
    BASE_ADDR_CALC, PC_EXTRA, PC_INDEX, PC_INDIRECT, PC_VALUE, DMPStream,
    Workload, expand_ranges, nest_positions,
)

INF = (1 << 31) - 1


def make_uniform_csr(nodes: int, degree: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random graph in CSR: (offsets H, neighbors adj)."""
    degrees = rng.integers(max(1, degree // 2), degree * 3 // 2 + 1, nodes)
    h = np.zeros(nodes + 1, dtype=np.int64)
    h[1:] = np.cumsum(degrees)
    adj = rng.integers(0, nodes, int(h[-1]), dtype=np.int64)
    return h, adj


def make_kron_csr(scale: int, edge_factor: int, rng,
                  a: float = 0.57, b: float = 0.19,
                  c: float = 0.19) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker (R-MAT) graph in CSR form — the GAP suite's default
    generator, with its (0.57, 0.19, 0.19, 0.05) initiator matrix.

    ``scale`` is log2(nodes); ``edge_factor`` is edges per node.  Returns
    (offsets H, neighbors adj) sorted by source; the power-law degree
    distribution is what distinguishes kron runs from the paper's uniform
    graphs.
    """
    nodes = 1 << scale
    edges = nodes * edge_factor
    src = np.zeros(edges, dtype=np.int64)
    dst = np.zeros(edges, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(edges)
        # Quadrant probabilities: a | b / c | d.
        src_bit = (r >= a + b).astype(np.int64)
        r2 = rng.random(edges)
        dst_bit = np.where(src_bit == 0, (r2 >= a / (a + b)),
                           (r2 >= c / (1.0 - a - b))).astype(np.int64)
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    h = np.zeros(nodes + 1, dtype=np.int64)
    counts = np.bincount(src, minlength=nodes)
    h[1:] = np.cumsum(counts)
    return h, dst.astype(np.int64)


class _GraphWorkload(Workload):
    suite = "GAP"

    def __init__(self, scale: int = 1 << 13, seed: int = 0,
                 nodes: int = 1 << 18, degree: int = 15) -> None:
        super().__init__(scale, seed)
        self.nodes = nodes
        self.degree = degree

    def _make_graph(self, mem: HostMemory) -> None:
        h, adj = make_uniform_csr(self.nodes, self.degree, self.rng)
        self.h_base, self.h = mem.place_input("H", h)
        self.adj_base, self.adj = mem.place_input("adj", adj)

    def non_roi_instructions(self) -> float:
        # Graph kernels iterate edges, not nodes: frontier setup, graph
        # loading, and the non-offloaded epilogue scale with the edges
        # processed per iteration.
        return 4.0 * self.scale * self.degree


class BFS(_GraphWorkload):
    """One bottom-up-style frontier expansion."""

    name = "BFS"
    pattern = "ST A[B[j]] if (D[E[j]] < F), j = H[K[i]] to H[K[i]+1]"

    def generate(self, mem: HostMemory) -> None:
        self._remember(mem)
        self._make_graph(mem)
        frontier = np.sort(self.rng.choice(
            self.nodes, size=self.scale, replace=False)).astype(np.int64)
        self.k_base, self.frontier = mem.place_input("K", frontier)
        dist = np.full(self.nodes, INF, dtype=np.int64)
        visited = self.rng.random(self.nodes) < 0.5
        dist[visited] = self.rng.integers(0, 5, int(visited.sum()))
        self.dist_base, self.dist = mem.place_input("dist", dist)
        self.parent_base = mem.place(
            "parent", np.full(self.nodes, -1, dtype=np.int64))

    def core_trace(self, part) -> Trace:
        # Per frontier node u: K[i], H[u]; per edge: adj[j], dist[v],
        # and the parent store only where v is unvisited.
        i = np.arange(part.start, part.stop)
        u = self.frontier[i]
        owner, j = expand_ranges(self.h[u], self.h[u + 1])
        v = self.adj[j]
        unvisited = self.dist[v] == INF
        item_at, edge_at, n = nest_positions(len(i), owner, head=2,
                                             body=2 + unvisited)
        em = BulkEmitter(n)
        em.load(item_at, self.k_base + 8 * i, pc=PC_INDEX, extra=2)
        em.load(item_at + 1, self.h_base + 8 * u, pc=PC_EXTRA, extra=2)
        em.load(edge_at, self.adj_base + 8 * j,
                deps=(item_at[owner] + 1,), pc=PC_INDEX, extra=1, tag=j)
        em.load(edge_at + 1, self.dist_base + 8 * v, deps=(edge_at,),
                pc=PC_INDIRECT, extra=BASE_ADDR_CALC - 2, tag=j)
        # The condition is a speculated branch: the store's address
        # data-depends on the neighbour id only.
        aj = edge_at[unvisited]
        em.store(aj + 2, self.parent_base + 8 * v[unvisited],
                 deps=(aj,), pc=PC_VALUE, extra=2, tag=j[unvisited])
        em.compute(edge_at[~unvisited] + 2, 2)
        return em.finish()

    def dx100_schedule(self, config: DX100Config, cores: int) -> list:
        items: list = []
        lows = self.h[self.frontier]
        highs = self.h[self.frontier + 1]
        for f0, f1 in plan_range_chunks(lows, highs, config.tile_elems):
            if lows[f0:f1].size == 0 or (highs[f0:f1] - lows[f0:f1]).sum() == 0:
                continue
            pb = ProgramBuilder(config)
            t_k = pb.sld(DType.I64, self.k_base, f0, f1)
            t_hlo = pb.ild(DType.I64, self.h_base, t_k)
            t_k1 = pb.alus(DType.I64, AluOp.ADD, t_k, 1)
            t_hhi = pb.ild(DType.I64, self.h_base, t_k1)
            t_outer, t_inner = pb.rng(t_hlo, t_hhi, outer_base=f0)
            t_adj = pb.ild(DType.I64, self.adj_base, t_inner)
            t_dist = pb.ild(DType.I64, self.dist_base, t_adj)
            t_cond = pb.alus(DType.I64, AluOp.EQ, t_dist, INF)
            t_u = pb.ild(DType.I64, self.k_base, t_outer)
            pb.ist(DType.I64, self.parent_base, t_adj, t_u, tc=t_cond)
            pb.wait(t_adj)
            items += pb.build()
        return items

    def expected(self) -> dict[str, np.ndarray]:
        return {}  # order-dependent: validated by validate() below

    def validate(self, mem: HostMemory) -> None:
        super().validate(mem)   # the input check; expected() is empty
        parent = mem.view("parent")
        # Unvisited neighbours of frontier nodes must have gained a parent
        # that is a frontier node adjacent to them; others stay -1.
        eligible = set()
        valid_parents: dict[int, set[int]] = {}
        for u in self.frontier.tolist():
            for j in range(int(self.h[u]), int(self.h[u + 1])):
                v = int(self.adj[j])
                if self.dist[v] == INF:
                    eligible.add(v)
                    valid_parents.setdefault(v, set()).add(u)
        for v in range(self.nodes):
            if v in eligible:
                if int(parent[v]) not in valid_parents[v]:
                    raise AssertionError(f"BFS: bad parent for node {v}")
            elif parent[v] != -1:
                raise AssertionError(f"BFS: spurious parent for node {v}")

    def dmp_streams(self) -> dict[int, DMPStream]:
        return {PC_INDIRECT: (self.dist_base, 8, self.adj)}


class PageRank(_GraphWorkload):
    """One push-style PR iteration over a node slice."""

    name = "PR"
    pattern = "RMW A[B[j]], j = H[i] to H[i+1]"

    def generate(self, mem: HostMemory) -> None:
        self._remember(mem)
        self._make_graph(mem)
        # Integer (fixed-point) contributions keep reordered sums exact.
        contrib = self.rng.integers(1, 1000, self.nodes, dtype=np.int64)
        self.contrib_base, self.contrib = mem.place_input("contrib", contrib)
        self.score_base = mem.place(
            "score_new", np.zeros(self.nodes, dtype=np.int64))

    def core_trace(self, part) -> Trace:
        # Per node i: H[i], contrib[i]; per edge: adj[j], atomic RMW.
        i = np.arange(part.start, part.stop)
        owner, j = expand_ranges(self.h[i], self.h[i + 1])
        item_at, edge_at, n = nest_positions(len(i), owner, head=2,
                                             body=2)
        em = BulkEmitter(n)
        em.load(item_at, self.h_base + 8 * i, pc=PC_EXTRA, extra=2)
        em.load(item_at + 1, self.contrib_base + 8 * i, pc=PC_VALUE,
                extra=1)
        em.load(edge_at, self.adj_base + 8 * j, deps=(item_at[owner],),
                pc=PC_INDEX, extra=1, tag=j)
        em.rmw(edge_at + 1, self.score_base + 8 * self.adj[j],
               deps=(edge_at,), atomic=True, pc=PC_INDIRECT,
               extra=BASE_ADDR_CALC - 2, tag=j)
        return em.finish()

    def dx100_schedule(self, config: DX100Config, cores: int) -> list:
        items: list = []
        lows, highs = self.h[:self.scale], self.h[1:self.scale + 1]
        for r0, r1 in plan_range_chunks(lows, highs, config.tile_elems):
            if self.h[r1] == self.h[r0]:
                continue
            pb = ProgramBuilder(config)
            t_lo = pb.sld(DType.I64, self.h_base, r0, r1)
            t_hi = pb.sld(DType.I64, self.h_base, r0 + 1, r1 + 1)
            t_outer, t_inner = pb.rng(t_lo, t_hi, outer_base=r0)
            t_adj = pb.ild(DType.I64, self.adj_base, t_inner)
            t_c = pb.ild(DType.I64, self.contrib_base, t_outer)
            pb.irmw(DType.I64, self.score_base, AluOp.ADD, t_adj, t_c)
            pb.wait(t_adj)
            items += pb.build()
        return items

    def expected(self) -> dict[str, np.ndarray]:
        score = np.zeros(self.nodes, dtype=np.int64)
        for i in range(self.scale):
            j0, j1 = int(self.h[i]), int(self.h[i + 1])
            np.add.at(score, self.adj[j0:j1], self.contrib[i])
        return {"score_new": score}

    def dmp_streams(self) -> dict[int, DMPStream]:
        return {PC_INDIRECT: (self.score_base, 8, self.adj)}


class BetweennessCentrality(_GraphWorkload):
    """One forward sigma-accumulation level of Brandes' algorithm."""

    name = "BC"
    pattern = "RMW A[B[j]] if (D[E[j]] == F), j = H[K[i]] to H[K[i]+1]"

    def generate(self, mem: HostMemory) -> None:
        self._remember(mem)
        self._make_graph(mem)
        depth = self.rng.integers(0, 4, self.nodes, dtype=np.int64)
        self.level = 2
        # Sources live strictly above the target level (Brandes levels are
        # disjoint), so sigma reads and sigma updates never alias.
        candidates = np.nonzero(depth != self.level)[0]
        frontier = np.sort(self.rng.choice(
            candidates, size=self.scale, replace=False)).astype(np.int64)
        self.k_base, self.frontier = mem.place_input("K", frontier)
        self.depth_base, self.depth = mem.place_input("depth", depth)
        # sigma is read and updated in place: keep its pristine copy.
        self.sigma0 = self.rng.integers(1, 100, self.nodes, dtype=np.int64)
        self.sigma_base = mem.place("sigma", self.sigma0)

    def core_trace(self, part) -> Trace:
        # Per frontier node u: K[i], H[u], sigma[u]; per edge: adj[j],
        # depth[v], and the sigma update only where v is on the level.
        i = np.arange(part.start, part.stop)
        u = self.frontier[i]
        owner, j = expand_ranges(self.h[u], self.h[u + 1])
        v = self.adj[j]
        on_level = self.depth[v] == self.level
        item_at, edge_at, n = nest_positions(len(i), owner, head=3,
                                             body=2 + on_level)
        em = BulkEmitter(n)
        em.load(item_at, self.k_base + 8 * i, pc=PC_INDEX, extra=2)
        em.load(item_at + 1, self.h_base + 8 * u, pc=PC_EXTRA, extra=2)
        em.load(item_at + 2, self.sigma_base + 8 * u, pc=PC_VALUE,
                extra=1)
        em.load(edge_at, self.adj_base + 8 * j,
                deps=(item_at[owner] + 1,), pc=PC_INDEX, extra=1, tag=j)
        em.load(edge_at + 1, self.depth_base + 8 * v, deps=(edge_at,),
                pc=PC_INDIRECT, extra=3, tag=j)
        aj = edge_at[on_level]
        em.rmw(aj + 2, self.sigma_base + 8 * v[on_level],
               deps=(aj, item_at[owner[on_level]] + 2), atomic=True,
               pc=PC_VALUE, extra=BASE_ADDR_CALC - 3, tag=j[on_level])
        em.compute(edge_at[~on_level] + 2, 2)
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
            t_adj = pb.ild(DType.I64, self.adj_base, t_inner)
            t_depth = pb.ild(DType.I64, self.depth_base, t_adj)
            t_cond = pb.alus(DType.I64, AluOp.EQ, t_depth, self.level)
            t_u = pb.ild(DType.I64, self.k_base, t_outer)
            t_su = pb.ild(DType.I64, self.sigma_base, t_u)
            pb.irmw(DType.I64, self.sigma_base, AluOp.ADD, t_adj, t_su,
                    tc=t_cond)
            pb.wait(t_adj)
            items += pb.build()
        return items

    def expected(self) -> dict[str, np.ndarray]:
        sigma = self.sigma0.copy()
        for u in self.frontier.tolist():
            j0, j1 = int(self.h[u]), int(self.h[u + 1])
            targets = self.adj[j0:j1]
            mask = self.depth[targets] == self.level
            np.add.at(sigma, targets[mask], self.sigma0[u])
        return {"sigma": sigma}

    def dmp_streams(self) -> dict[int, DMPStream]:
        return {PC_INDIRECT: (self.depth_base, 8, self.adj)}
