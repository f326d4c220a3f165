"""Reference trace emitters: the registry workloads' kernels written as
plain per-op loops over :class:`~repro.core.trace.TraceBuilder`.

Each function takes a workload after ``generate`` and returns what the
workload's own method must return, column for column.  The workloads build
the same traces with whole-array fills (``repro.core.trace.BulkEmitter``);
these loops are the readable statement of each kernel's op stream that
``test_bulk_traces.py`` and the CI full-scale set-up check hold them to.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.common.types import AluOp, DType
from repro.core.trace import Trace, TraceBuilder, split_static
from repro.dx100.api import ProgramBuilder
from repro.dx100.range_fuser import plan_range_chunks
from repro.workloads.base import (
    BASE_ADDR_CALC, PC_EXTRA, PC_INDEX, PC_INDIRECT, PC_OUTPUT, PC_SPD,
    PC_VALUE, CoreWork, chunk_bounds,
)
from repro.workloads.gap import INF
from repro.workloads.ume import THRESHOLD


# ------------------------------------------------------------ baseline


def integer_sort(wl, cores: int) -> list[Trace]:
    traces = []
    keys = wl.keys.tolist()
    for part in split_static(list(range(wl.scale)), cores):
        tb = TraceBuilder()
        for i in part:
            idx = tb.load(wl.k_base + 8 * i, pc=PC_INDEX, extra=2, tag=i)
            tb.rmw(wl.count_base + 4 * keys[i], size=4,
                   deps=(idx,), atomic=True, pc=PC_INDIRECT,
                   extra=BASE_ADDR_CALC, tag=i)
        traces.append(tb.finish())
    return traces


def conjugate_gradient(wl, cores: int) -> list[Trace]:
    traces = []
    h, col = wl.h.tolist(), wl.col.tolist()
    for rows in split_static(list(range(wl.scale)), cores):
        tb = TraceBuilder()
        for i in rows:
            tb.load(wl.h_base + 8 * i, pc=PC_EXTRA, extra=2)
            for j in range(h[i], h[i + 1]):
                cidx = tb.load(wl.col_base + 8 * j, pc=PC_INDEX, extra=1,
                               tag=j)
                tb.load(wl.vals_base + 8 * j, pc=PC_VALUE, extra=1)
                tb.load(wl.x_base + 8 * col[j], deps=(cidx,),
                        pc=PC_INDIRECT, extra=BASE_ADDR_CALC - 2, tag=j)
            tb.store(wl.y_base + 8 * i, pc=PC_OUTPUT, extra=2)
        traces.append(tb.finish())
    return traces


def bfs(wl, cores: int) -> list[Trace]:
    traces = []
    frontier, h = wl.frontier.tolist(), wl.h.tolist()
    adj, dist = wl.adj.tolist(), wl.dist.tolist()
    for part in split_static(list(range(wl.scale)), cores):
        tb = TraceBuilder()
        for i in part:
            u = frontier[i]
            tb.load(wl.k_base + 8 * i, pc=PC_INDEX, extra=2)
            hk = tb.load(wl.h_base + 8 * u, pc=PC_EXTRA, extra=2)
            for j in range(h[u], h[u + 1]):
                v = adj[j]
                aj = tb.load(wl.adj_base + 8 * j, deps=(hk,), pc=PC_INDEX,
                             extra=1, tag=j)
                tb.load(wl.dist_base + 8 * v, deps=(aj,), pc=PC_INDIRECT,
                        extra=BASE_ADDR_CALC - 2, tag=j)
                if dist[v] == INF:
                    tb.store(wl.parent_base + 8 * v, deps=(aj,),
                             pc=PC_VALUE, extra=2, tag=j)
                else:
                    tb.compute(2)
        traces.append(tb.finish())
    return traces


def page_rank(wl, cores: int) -> list[Trace]:
    traces = []
    h, adj = wl.h.tolist(), wl.adj.tolist()
    for part in split_static(list(range(wl.scale)), cores):
        tb = TraceBuilder()
        for i in part:
            hk = tb.load(wl.h_base + 8 * i, pc=PC_EXTRA, extra=2)
            tb.load(wl.contrib_base + 8 * i, pc=PC_VALUE, extra=1)
            for j in range(h[i], h[i + 1]):
                aj = tb.load(wl.adj_base + 8 * j, deps=(hk,), pc=PC_INDEX,
                             extra=1, tag=j)
                tb.rmw(wl.score_base + 8 * adj[j], deps=(aj,), atomic=True,
                       pc=PC_INDIRECT, extra=BASE_ADDR_CALC - 2, tag=j)
        traces.append(tb.finish())
    return traces


def betweenness_centrality(wl, cores: int) -> list[Trace]:
    traces = []
    frontier, h = wl.frontier.tolist(), wl.h.tolist()
    adj, depth = wl.adj.tolist(), wl.depth.tolist()
    for part in split_static(list(range(wl.scale)), cores):
        tb = TraceBuilder()
        for i in part:
            u = frontier[i]
            tb.load(wl.k_base + 8 * i, pc=PC_INDEX, extra=2)
            hk = tb.load(wl.h_base + 8 * u, pc=PC_EXTRA, extra=2)
            su = tb.load(wl.sigma_base + 8 * u, pc=PC_VALUE, extra=1)
            for j in range(h[u], h[u + 1]):
                v = adj[j]
                aj = tb.load(wl.adj_base + 8 * j, deps=(hk,), pc=PC_INDEX,
                             extra=1, tag=j)
                tb.load(wl.depth_base + 8 * v, deps=(aj,), pc=PC_INDIRECT,
                        extra=3, tag=j)
                if depth[v] == wl.level:
                    tb.rmw(wl.sigma_base + 8 * v, deps=(aj, su),
                           atomic=True, pc=PC_VALUE,
                           extra=BASE_ADDR_CALC - 3, tag=j)
                else:
                    tb.compute(2)
        traces.append(tb.finish())
    return traces


def radix_join_histogram(wl, cores: int) -> list[Trace]:
    traces = []
    radix, offsets = wl.radix.tolist(), wl.offsets.tolist()
    for part in split_static(list(range(wl.scale)), cores):
        tb = TraceBuilder()
        for i in part:
            key = tb.load(wl.c_base + 8 * i, pc=PC_INDEX, extra=3)
            tb.rmw(wl.hist_base + 8 * radix[i], deps=(key,), atomic=True,
                   pc=PC_VALUE, extra=3, tag=i)
        for i in part:
            key = tb.load(wl.c_base + 8 * i, pc=PC_INDEX, extra=3, tag=i)
            off = tb.load(wl.b_base + 8 * radix[i], deps=(key,),
                          pc=PC_EXTRA, extra=2, tag=i)
            tb.store(wl.a_base + 8 * offsets[radix[i]], deps=(off,),
                     pc=PC_INDIRECT, extra=BASE_ADDR_CALC - 4, tag=i)
        traces.append(tb.finish())
    return traces


def radix_join_chaining(wl, cores: int) -> list[Trace]:
    traces = []
    probe_radix = wl.probe_radix.tolist()
    head, nxt = wl.head.tolist(), wl.next.tolist()
    for part in split_static(list(range(wl.scale)), cores):
        tb = TraceBuilder()
        for i in part:
            h = probe_radix[i]
            n0 = head[h]
            n1 = nxt[n0]
            key = tb.load(wl.probe_base + 8 * i, pc=PC_INDEX, extra=3, tag=i)
            e0 = tb.load(wl.head_base + 8 * h, deps=(key,), pc=PC_INDIRECT,
                         extra=3, tag=i)
            p0 = tb.load(wl.pay_base + 8 * n0, deps=(e0,), pc=PC_VALUE,
                         extra=2, tag=i)
            e1 = tb.load(wl.next_base + 8 * n0, deps=(e0,), pc=PC_EXTRA,
                         extra=2, tag=i)
            p1 = tb.load(wl.pay_base + 8 * n1, deps=(e1,), pc=PC_VALUE,
                         extra=2, tag=i)
            tb.store(wl.res_base + 8 * i, deps=(p0, p1), pc=PC_OUTPUT,
                     extra=3)
        traces.append(tb.finish())
    return traces


def gradient_rmw(wl, cores: int) -> list[Trace]:
    traces = []
    d, b = wl.d.tolist(), wl.b.tolist()
    for part in split_static(list(range(wl.scale)), cores):
        tb = TraceBuilder()
        for i in part:
            tb.load(wl.d_base + 8 * i, pc=PC_EXTRA, extra=3)
            tb.load(wl.gx_base + 8 * i, pc=PC_VALUE, extra=6)
            if d[i] >= THRESHOLD:
                idx = tb.load(wl.b_base + 8 * i, pc=PC_INDEX, extra=1, tag=i)
                tb.load(wl.c_base + 8 * i, pc=PC_VALUE, extra=1)
                tb.rmw(wl.a_base + 8 * b[i], deps=(idx,), atomic=True,
                       pc=PC_INDIRECT, extra=BASE_ADDR_CALC - 2, tag=i)
            else:
                tb.compute(2)
        traces.append(tb.finish())
    return traces


def gradient_indirect_ld(wl, cores: int) -> list[Trace]:
    traces = []
    frontier, h = wl.frontier.tolist(), wl.h.tolist()
    d, c, b = wl.d.tolist(), wl.c.tolist(), wl.b.tolist()
    for part in split_static(list(range(wl.scale)), cores):
        tb = TraceBuilder()
        for i in part:
            u = frontier[i]
            tb.load(wl.k_base + 8 * i, pc=PC_INDEX, extra=2)
            hk = tb.load(wl.h_base + 8 * u, pc=PC_EXTRA, extra=2)
            for j in range(h[u], h[u + 1]):
                tb.load(wl.d_base + 8 * j, deps=(hk,), pc=PC_VALUE, extra=2,
                        tag=j)
                if d[j] >= THRESHOLD:
                    cj = tb.load(wl.c_base + 8 * j, pc=PC_INDEX, extra=1,
                                 tag=j)
                    bj = tb.load(wl.b_base + 8 * c[j], deps=(cj,),
                                 pc=PC_EXTRA, extra=2, tag=j)
                    tb.load(wl.a_base + 8 * b[c[j]], deps=(bj,),
                            pc=PC_INDIRECT, extra=BASE_ADDR_CALC - 4, tag=j)
                else:
                    tb.compute(2)
                tb.compute(4)
        traces.append(tb.finish())
    return traces


def spatter_xrage(wl, cores: int) -> list[Trace]:
    traces = []
    indices = wl.indices.tolist()
    for part in split_static(list(range(wl.scale)), cores):
        tb = TraceBuilder()
        for i in part:
            idx = tb.load(wl.b_base + 8 * i, pc=PC_INDEX, extra=2, tag=i)
            val = tb.load(wl.c_base + 8 * i, pc=PC_VALUE, extra=1)
            tb.store(wl.a_base + 8 * indices[i], deps=(idx, val),
                     pc=PC_INDIRECT, extra=BASE_ADDR_CALC, tag=i)
        traces.append(tb.finish())
    return traces


BASELINE = {
    "IS": integer_sort,
    "CG": conjugate_gradient,
    "BFS": bfs,
    "PR": page_rank,
    "BC": betweenness_centrality,
    "PRH": radix_join_histogram,
    "PRO": radix_join_chaining,
    "GZZ": gradient_rmw,
    "GZP": gradient_rmw,
    "GZZI": gradient_indirect_ld,
    "GZPI": gradient_indirect_ld,
    "XRAGE": spatter_xrage,
}


# ------------------------------------------------- DX100 residual core work


def cg_residual(wl, config, cores: int) -> list[CoreWork]:
    works = []
    for r0, r1 in plan_range_chunks(wl.h[:-1], wl.h[1:], config.tile_elems):
        if wl.h[r1] == wl.h[r0]:
            continue
        pb = ProgramBuilder(config)
        t_lo = pb.sld(DType.I64, wl.h_base, r0, r1)
        t_hi = pb.sld(DType.I64, wl.h_base, r0 + 1, r1 + 1)
        _, t_inner = pb.rng(t_lo, t_hi, outer_base=r0)
        t_col = pb.ild(DType.I64, wl.col_base, t_inner)
        t_x = pb.ild(DType.I64, wl.x_base, t_col)
        j0, j1 = int(wl.h[r0]), int(wl.h[r1])
        works.append(CoreWork(functools.partial(
            _cg_chunk, wl, j0, j1, pb.spd_addr(t_x), cores)))
    return works


def _cg_chunk(wl, j0: int, j1: int, spd: int, cores: int) -> list[Trace]:
    traces = []
    for part in split_static(list(range(j0, j1)), cores):
        tb = TraceBuilder()
        for j in part:
            tb.load(wl.vals_base + 8 * j, pc=PC_VALUE, extra=1)
            tb.load(spd + 4 * (j - j0), size=4, pc=PC_SPD, extra=2)
        traces.append(tb.finish())
    return traces


def gradient_rmw_residual(wl, config, cores: int) -> list[CoreWork]:
    return [CoreWork(functools.partial(_gradient_rmw_chunk, wl, lo, hi,
                                       cores))
            for lo, hi in chunk_bounds(wl.scale, config.tile_elems)]


def _gradient_rmw_chunk(wl, lo: int, hi: int, cores: int) -> list[Trace]:
    traces = []
    for part in split_static(list(range(lo, hi)), cores):
        tb = TraceBuilder()
        for i in part:
            tb.load(wl.gx_base + 8 * i, pc=PC_VALUE, extra=6)
            tb.store(wl.c_base + 8 * i, pc=PC_INDEX, extra=1)
        traces.append(tb.finish())
    return traces


def gradient_indirect_ld_residual(wl, config, cores: int) -> list[CoreWork]:
    works = []
    lows = wl.h[wl.frontier]
    highs = wl.h[wl.frontier + 1]
    for f0, f1 in plan_range_chunks(lows, highs, config.tile_elems):
        if (highs[f0:f1] - lows[f0:f1]).sum() == 0:
            continue
        pb = ProgramBuilder(config)
        t_k = pb.sld(DType.I64, wl.k_base, f0, f1)
        t_hlo = pb.ild(DType.I64, wl.h_base, t_k)
        t_k1 = pb.alus(DType.I64, AluOp.ADD, t_k, 1)
        t_hhi = pb.ild(DType.I64, wl.h_base, t_k1)
        _, t_inner = pb.rng(t_hlo, t_hhi, outer_base=f0)
        t_d = pb.ild(DType.I64, wl.d_base, t_inner)
        t_cond = pb.alus(DType.I64, AluOp.GE, t_d, THRESHOLD)
        t_c = pb.ild(DType.I64, wl.c_base, t_inner, tc=t_cond)
        t_b = pb.ild(DType.I64, wl.b_base, t_c, tc=t_cond)
        t_a = pb.ild(DType.I64, wl.a_base, t_b, tc=t_cond)
        count = int((highs[f0:f1] - lows[f0:f1]).sum())
        works.append(CoreWork(functools.partial(
            _gradient_indirect_ld_chunk, count, pb.spd_addr(t_a), cores)))
    return works


def _gradient_indirect_ld_chunk(count: int, spd: int,
                                cores: int) -> list[Trace]:
    traces = []
    for part in split_static(list(range(count)), cores):
        tb = TraceBuilder()
        for e in part:
            tb.load(spd + 4 * e, size=4, pc=PC_SPD, extra=4)
        traces.append(tb.finish())
    return traces


#: name -> the CoreWork items of its DX100 schedule, in schedule order.
#: Workloads not listed offload everything (their schedules hold none).
RESIDUAL = {
    "CG": cg_residual,
    "GZZ": gradient_rmw_residual,
    "GZP": gradient_rmw_residual,
    "GZZI": gradient_indirect_ld_residual,
    "GZPI": gradient_indirect_ld_residual,
}


def residual(wl, config, cores: int) -> list[CoreWork]:
    fn = RESIDUAL.get(wl.name)
    return fn(wl, config, cores) if fn else []


def xrage_indices(scale: int, block: int, region: int,
                  seed: int) -> np.ndarray:
    """SpatterXRAGE's scatter indices, one ``np.arange`` per block."""
    rng = np.random.default_rng(seed)
    n_blocks = -(-scale // block)
    starts = rng.integers(0, region - block, n_blocks).astype(np.int64)
    runs = [np.arange(s, s + block) for s in starts]
    return np.concatenate(runs)[:scale]
