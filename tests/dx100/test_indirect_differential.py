"""Differential test: the batched Indirect unit vs the scalar oracle.

:class:`~repro.dx100.indirect_unit.IndirectUnit` inserts one element at a
time into a :class:`~repro.dx100.row_table.RowTable` and a Word Table; it
is the specification.  :class:`~repro.dx100.batched.BatchedIndirectUnit`
computes the same drain batches with array operations.  Short programs of
ILD/IST/IRMW tiles run through both units on paired systems, and the two
must agree on

* every :class:`IndirectResult` field (values, finish, drains, ...);
* the unit, cache-hierarchy and merged DRAM counters;
* the DRAM command stream of every channel;
* the host-memory bytes;
* the ``tile_phases`` / ``rt_fills`` observability events.

The batched unit hands each drain to DRAM as columns
(:meth:`~repro.dram.DRAMSystem.access_lines`) where the scalar unit makes
one request per line, so programs also queue core traffic in DRAM while a
tile drains, shrink the request buffer (back-pressure mid-batch), start
tiles just before a refresh point, and place half the lines behind the
far link.

Tiny Row Tables (1-4 BCAM rows, 1-8 columns) force mid-fill capacity
drains, which the quick goldens never reach: every quick-scale indirect
instruction drains exactly once.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import MemoryHierarchy
from repro.cache.batched import BatchedHierarchy
from repro.common import AluOp, DType, SystemConfig
from repro.common.config import dram_preset
from repro.common.stats import Stats
from repro.dram import DRAMSystem
from repro.dx100 import HostMemory
from repro.dx100.batched import BatchedIndirectUnit
from repro.dx100.indirect_unit import IndirectUnit
from repro.dx100.tlb import TLB
from repro.obs.events import EventBus

T_REFI = dram_preset("ddr4").timing.tREFI
ELEMS = 1 << 18            # u32 array: 1 MiB, 16 DRAM rows per bank
LINE_ELEMS = 16            # u32 words per 64 B line
RESULT_FIELDS = ("finish", "elements", "unique_lines", "drains", "start",
                 "busy_until")


def _system(batched: bool, engine: str, dram: str, rows: int, cols: int,
            fill_rate: int, drain_rate: int, observe: bool,
            request_buffer: int = 32, t0: int = 0):
    base = SystemConfig.dx100_system(cores=2, tile_elems=1024)
    dram_cfg = replace(dram_preset(dram.removesuffix("-mixed")),
                       engine=engine, request_buffer=request_buffer)
    if dram.endswith("-mixed"):
        # Half the lines behind the link, by hash: drains mix far and
        # local lines.
        dram_cfg = replace(dram_cfg, remote=replace(
            dram_cfg.remote, placement="hash", far_fraction=0.5))
    cfg = replace(
        base,
        dram=dram_cfg,
        dx100=replace(base.dx100, row_table_rows=rows, row_table_cols=cols,
                      fill_rate=fill_rate, drain_rate=drain_rate))
    dram_sys = DRAMSystem(cfg.dram)
    logs: list[list[tuple]] = []
    for ctrl in dram_sys.controllers:
        log: list[tuple] = []
        ctrl.command_observers.append(
            lambda kind, cycle, bank, row, _l=log:
            _l.append((kind, cycle, bank, row)))
        logs.append(log)
    hier = (BatchedHierarchy if batched else MemoryHierarchy)(cfg, dram_sys)
    mem = HostMemory(1 << 22)
    stats = Stats()
    unit_cls = BatchedIndirectUnit if batched else IndirectUnit
    unit = unit_cls(cfg.dx100, hier, dram_sys, mem, TLB(cfg.dx100, stats),
                    stats)
    bus = EventBus(trace=True) if observe else None
    unit.obs = bus
    return unit, logs, bus


def _run(batched: bool, setup: dict, program: list[dict]):
    unit, logs, bus = _system(batched, **setup)
    mem, hier, dram = unit.hostmem, unit.hierarchy, unit.dram
    rng = np.random.default_rng(7)
    base = mem.place("a", rng.integers(0, 1000, ELEMS).astype(np.uint32))
    results = []
    core = []
    t = setup.get("t0", 0)
    for instr in program:
        for line, is_write, dt in instr.get("core", ()):
            # Core demand traffic still queued in DRAM while the tile
            # drains.
            core.append(dram.access(base + line * 64, is_write, t + dt))
        for line in instr["warm_llc"]:
            t = hier.llc_access(base + line * 64, False, t).resolve(dram)
        for line in instr["warm_l2"]:
            hier.l2[0].insert(base + line * 64)
        idx = np.asarray(instr["indices"], dtype=np.int64)
        cond = (None if instr["cond"] is None
                else np.asarray(instr["cond"][:len(idx)], dtype=np.int64))
        src = np.arange(1, len(idx) + 1, dtype=np.uint32) * 3
        avail = instr["avail"]
        if avail is not None:
            avail = (t + avail[0], avail[1])
        res = unit.execute(instr["kind"], base, DType.U32, idx, cond,
                           None if instr["kind"] == "ld" else src, t,
                           op=AluOp.ADD, index_avail=avail, tile=len(results))
        results.append(res)
        t = res.finish if instr["wait"] else t + instr["gap"]
    dram.drain()
    return {
        "results": [({f: getattr(r, f) for f in RESULT_FIELDS},
                     None if r.values is None else r.values.tolist())
                    for r in results],
        "unit_stats": dict(unit.stats.counters),
        "cache_stats": dict(hier.stats.counters),
        "dram_stats": dict(dram.merged_stats().counters),
        "commands": logs,
        "memory": mem._buf.tobytes(),
        "core": [(r.start, r.finish, r.row_hit, r.far) for r in core],
        "tile_phases": None if bus is None else bus.tile_phases,
        "rt_fills": None if bus is None else bus.rt_fills,
    }


def _assert_same(setup: dict, program: list[dict]) -> dict:
    scalar = _run(False, setup, program)
    batched = _run(True, setup, program)
    for key in scalar:
        assert batched[key] == scalar[key], key
    return batched


# ------------------------------------------------------------ strategies

@st.composite
def _indices(draw):
    n = draw(st.integers(0, 160))
    shape = draw(st.sampled_from(["uniform", "clustered", "duplicated"]))
    if shape == "uniform":
        return draw(st.lists(st.integers(0, ELEMS - 1), min_size=n,
                             max_size=n))
    if shape == "clustered":
        # A few hot windows of lines: heavy coalescing, shared rows.
        centres = draw(st.lists(st.integers(0, ELEMS - 512), min_size=1,
                                max_size=4))
        return [centres[k % len(centres)] + draw(st.integers(0, 511))
                for k in range(n)]
    pool = draw(st.lists(st.integers(0, ELEMS - 1), min_size=1, max_size=8))
    return [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]


@st.composite
def _instr(draw):
    indices = draw(_indices())
    lines = sorted({i // LINE_ELEMS for i in indices})
    warm = (st.lists(st.sampled_from(lines), max_size=6, unique=True)
            if lines else st.just([]))
    return {
        "kind": draw(st.sampled_from(["ld", "st", "rmw"])),
        "indices": indices,
        "cond": draw(st.none() | st.lists(st.integers(0, 1),
                                          min_size=len(indices),
                                          max_size=len(indices))),
        "avail": draw(st.none() | st.tuples(
            st.integers(0, 40), st.sampled_from([0.3, 1.0, 5.0, 64.0]))),
        "warm_llc": draw(warm),
        "warm_l2": draw(warm),
        "wait": draw(st.booleans()),
        "gap": draw(st.integers(0, 200)),
        "core": draw(st.lists(st.tuples(
            st.integers(0, ELEMS // LINE_ELEMS - 1), st.booleans(),
            st.integers(0, 80)), max_size=4)),
    }


_SETUP = st.fixed_dictionaries({
    "engine": st.sampled_from(["batched", "scalar"]),
    "dram": st.sampled_from(["ddr4", "ddr4", "cxl", "cxl-mixed"]),
    "rows": st.integers(1, 4),
    "cols": st.integers(1, 8),
    "fill_rate": st.sampled_from([16, 3]),
    "drain_rate": st.sampled_from([2, 1]),
    "observe": st.booleans(),
    "request_buffer": st.sampled_from([32, 32, 4]),
    "t0": st.sampled_from([0, 0, T_REFI - 200]),
})


@settings(max_examples=80, deadline=None)
@given(setup=_SETUP, program=st.lists(_instr(), min_size=1, max_size=3))
def test_batched_indirect_matches_scalar(setup, program):
    _assert_same(setup, program)


# --------------------------------------------------------- deterministic

def _spread(n: int, seed: int) -> list[int]:
    return np.random.default_rng(seed).integers(0, ELEMS, n).tolist()


@pytest.mark.parametrize("engine", ["batched", "scalar"])
@pytest.mark.parametrize("kind", ["ld", "st", "rmw"])
def test_mid_fill_drains_and_both_h_bit_routes(engine, kind):
    """Non-vacuity: a tiny table drains mid-fill, warmed lines take the
    cache route and cold ones go straight to DRAM."""
    indices = _spread(600, 1)
    warm = sorted({i // LINE_ELEMS for i in indices})[:20]
    program = [{"kind": kind, "indices": indices, "cond": None,
                "avail": (5, 2.0), "warm_llc": warm[:10],
                "warm_l2": warm[10:], "wait": True, "gap": 0}]
    setup = {"engine": engine, "dram": "ddr4", "rows": 2, "cols": 2,
             "fill_rate": 16, "drain_rate": 2, "observe": True}
    out = _assert_same(setup, program)
    fields, _ = out["results"][0]
    assert fields["drains"] > 3
    assert len(out["rt_fills"]) == fields["drains"]
    # Warm-up made 10 LLC accesses; the rest are H-bit lines of the tile.
    assert out["cache_stats"]["llc_accesses"] > 10
    assert out["dram_stats"]["reads"] > fields["unique_lines"] - 20


def test_default_table_single_drain_equivalence():
    """The production shape: a full-size table, one drain per tile."""
    program = [{"kind": "ld", "indices": _spread(1024, 2), "cond": None,
                "avail": None, "warm_llc": [], "warm_l2": [], "wait": True,
                "gap": 0}]
    setup = {"engine": "batched", "dram": "ddr4", "rows": 64, "cols": 8,
             "fill_rate": 16, "drain_rate": 2, "observe": False}
    out = _assert_same(setup, program)
    assert out["results"][0][0]["drains"] == 1


# ---------------------------------------------------------- batch programs

_BATCH_CASES = {
    # 600 cold lines into a 4-entry request buffer, with core requests
    # queued in DRAM ahead of and inside the drain window.
    "back-pressure-core": ({"request_buffer": 4},
                           [(n, n % 2 == 0, n % 40) for n in range(0, 90, 7)]),
    # The first tile drains across the first tREFI point.
    "refresh-crossing": ({"t0": T_REFI - 200}, []),
    # Half the lines behind the far link (hash placement).
    "far-lines": ({"dram": "cxl-mixed"}, []),
}


@pytest.mark.parametrize("engine", ["batched", "scalar"])
@pytest.mark.parametrize("case", sorted(_BATCH_CASES))
def test_batch_programs(engine, case):
    """Drains entering DRAM as columns under back-pressure, with core
    traffic in flight, across a refresh, and with far lines; each program
    is an IRMW tile (writebacks interleave with later reads) then an ILD
    tile, on a small table so both drain mid-fill."""
    overrides, core = _BATCH_CASES[case]
    setup = {"engine": engine, "dram": "ddr4", "rows": 4, "cols": 4,
             "fill_rate": 16, "drain_rate": 2, "observe": False,
             **overrides}
    program = [{"kind": kind, "indices": _spread(600, seed), "cond": None,
                "avail": None, "warm_llc": [], "warm_l2": [], "wait": False,
                "gap": 30, "core": core}
               for seed, kind in ((3, "rmw"), (4, "ld"))]
    out = _assert_same(setup, program)
    assert all(fields["drains"] > 1 for fields, _ in out["results"])
    stats = out["dram_stats"]
    assert stats["writes"] >= out["results"][0][0]["unique_lines"]
    if case == "refresh-crossing":
        first = out["results"][0][0]
        assert first["start"] < T_REFI < first["finish"]
        assert stats["refreshes"] > 0
    if case == "far-lines":
        assert 0 < out["unit_stats"]["indirect_far_lines"] < stats["reads"]
    if core:
        assert len(out["core"]) == len(core) * len(program)
