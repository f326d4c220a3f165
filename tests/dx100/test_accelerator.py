"""End-to-end DX100 programs: dispatch, scoreboard, functional cross-check."""

import numpy as np
import pytest

from repro.common import AluOp, DType, SystemConfig
from repro.cache import MemoryHierarchy
from repro.dram import DRAMSystem
from repro.dx100 import DX100, FunctionalDX100, HostMemory, ProgramBuilder


def fresh(tile_elems=512):
    cfg = SystemConfig.dx100_system(tile_elems=tile_elems)
    dram = DRAMSystem(cfg.dram)
    hier = MemoryHierarchy(cfg, dram)
    mem = HostMemory(1 << 22)
    return cfg, dram, hier, mem, DX100(cfg, hier, dram, mem)


def gather_program(cfg, mem, n=256):
    """The paper's Figure 7 example: C[i] = A[B[i]]."""
    rng = np.random.default_rng(0)
    a = rng.integers(0, 1000, size=1024).astype(np.uint32)
    b = rng.integers(0, 1024, size=n).astype(np.uint32)
    a_base = mem.place("A", a)
    b_base = mem.place("B", b)
    c_base = mem.alloc("C", n, DType.U32)
    pb = ProgramBuilder(cfg.dx100)
    t_b = pb.sld(DType.U32, b_base, 0, n)
    t_c = pb.ild(DType.U32, a_base, t_b)
    pb.sst(DType.U32, c_base, t_c, 0, n)
    pb.wait(t_c)
    return pb.build(), a, b


def test_gather_full_program_matches_reference():
    cfg, dram, hier, mem, dx = fresh()
    program, a, b = gather_program(cfg, mem)
    finish = dx.run_program(program)
    assert finish > 0
    assert mem.view("C").tolist() == a[b].tolist()


def test_functional_simulator_agrees_with_timing_model():
    cfg, dram, hier, mem, dx = fresh()
    program, a, b = gather_program(cfg, mem)
    dx.run_program(program)
    timing_result = mem.view("C").copy()

    mem2 = HostMemory(1 << 22)
    program2, a2, b2 = gather_program(cfg, mem2)
    FunctionalDX100(cfg.dx100, mem2).run(program2)
    assert mem2.view("C").tolist() == timing_result.tolist()


def test_scoreboard_orders_dependent_instructions():
    cfg, dram, hier, mem, dx = fresh()
    program, a, b = gather_program(cfg, mem)
    dx.run_program(program)
    sld_rec, ild_rec, sst_rec = dx.records
    # ILD consumes the SLD's tile: it may overlap the stream but cannot
    # finish before it; SST streams behind ILD through the finish bits, so
    # it may start early but cannot complete before its producer.
    assert ild_rec.finish >= sld_rec.finish
    assert sst_rec.start >= ild_rec.start
    assert sst_rec.finish >= ild_rec.finish


def test_sld_ild_fine_grained_overlap():
    """The finish-bit overlap (Section 3.5): the indirect fill starts while
    the stream load is still delivering indices."""
    cfg, dram, hier, mem, dx = fresh(tile_elems=2048)
    program, a, b = gather_program(cfg, mem, n=2048)
    dx.run_program(program)
    sld_rec, ild_rec, _ = dx.records
    assert ild_rec.start < sld_rec.finish


def test_conditional_rmw_program():
    cfg, dram, hier, mem, dx = fresh()
    n = 128
    rng = np.random.default_rng(3)
    a = np.zeros(256, dtype=np.int64)
    b = rng.integers(0, 256, size=n)
    d = rng.integers(0, 100, size=n)
    a_base = mem.place("A", a)
    b_base = mem.place("B", b.astype(np.int64))
    d_base = mem.place("D", d.astype(np.int64))
    c_base = mem.place("CONST", np.ones(n, dtype=np.int64))

    pb = ProgramBuilder(cfg.dx100)
    t_b = pb.sld(DType.I64, b_base, 0, n)
    t_d = pb.sld(DType.I64, d_base, 0, n)
    t_cond = pb.alus(DType.I64, AluOp.GE, t_d, 50)      # D[i] >= 50
    t_one = pb.sld(DType.I64, c_base, 0, n)
    pb.irmw(DType.I64, a_base, AluOp.ADD, t_b, t_one, tc=t_cond)
    pb.wait(t_b)
    dx.run_program(pb.build())

    expect = np.zeros(256, dtype=np.int64)
    np.add.at(expect, b[d >= 50], 1)
    assert mem.view("A").tolist() == expect.tolist()


def test_multi_level_indirection():
    """A[B[C[i]]] via chained ILDs (Table 1's GZZI pattern)."""
    cfg, dram, hier, mem, dx = fresh()
    rng = np.random.default_rng(5)
    a = rng.integers(0, 99, size=512).astype(np.int64)
    b = rng.integers(0, 512, size=256).astype(np.int64)
    c = rng.integers(0, 256, size=64).astype(np.int64)
    a_base, b_base = mem.place("A", a), mem.place("B", b)
    c_base = mem.place("C", c)
    pb = ProgramBuilder(cfg.dx100)
    t_c = pb.sld(DType.I64, c_base, 0, 64)
    t_bc = pb.ild(DType.I64, b_base, t_c)
    t_abc = pb.ild(DType.I64, a_base, t_bc)
    pb.wait(t_abc)
    dx.run_program(pb.build())
    assert dx.spd.read(t_abc).tolist() == a[b[c]].tolist()


def test_range_fuser_program():
    """j = H[i] .. H[i+1] fused, then A[B[j]] (the CG pattern)."""
    cfg, dram, hier, mem, dx = fresh()
    h = np.array([0, 3, 3, 7, 12], dtype=np.int64)   # 4 ranges
    b = np.arange(12, dtype=np.int64)[::-1].copy()
    a = (np.arange(64, dtype=np.int64) * 11)
    h_base, b_base, a_base = mem.place("H", h), mem.place("B", b), mem.place("A", a)
    pb = ProgramBuilder(cfg.dx100)
    t_lo = pb.sld(DType.I64, h_base, 0, 4)
    t_hi = pb.sld(DType.I64, h_base, 1, 5)
    t_outer, t_inner = pb.rng(t_lo, t_hi)
    t_bj = pb.ild(DType.I64, b_base, t_inner)
    t_abj = pb.ild(DType.I64, a_base, t_bj)
    pb.wait(t_abj)
    dx.run_program(pb.build())
    expect = []
    for i in range(4):
        for j in range(h[i], h[i + 1]):
            expect.append(a[b[j]])
    assert dx.spd.read(t_abj).tolist() == expect


def test_register_and_tile_exhaustion():
    cfg, dram, hier, mem, dx = fresh()
    pb = ProgramBuilder(cfg.dx100)
    for _ in range(cfg.dx100.num_tiles):
        pb.alloc_tile()
    with pytest.raises(RuntimeError):
        pb.alloc_tile()
    pb2 = ProgramBuilder(cfg.dx100)
    for _ in range(cfg.dx100.num_registers):
        pb2.reg(0)
    with pytest.raises(RuntimeError):
        pb2.reg(0)


def test_wait_and_mark_consumed():
    cfg, dram, hier, mem, dx = fresh()
    program, *_ = gather_program(cfg, mem)
    dx.run_program(program)
    # A consumed tile re-targeted by a later instruction triggers
    # scratchpad invalidations.
    assert dx.coherency.tracked_lines >= 0  # V bits live after wait


def test_units_overlap_for_independent_instructions():
    """Stream and ALU work on disjoint tiles can overlap in time."""
    cfg, dram, hier, mem, dx = fresh()
    n = 512
    x = np.arange(n, dtype=np.int64)
    x_base = mem.place("X", x)
    pb = ProgramBuilder(cfg.dx100)
    t_x = pb.sld(DType.I64, x_base, 0, n)
    t_y = pb.alus(DType.I64, AluOp.ADD, t_x, 5)
    t_z = pb.sld(DType.I64, x_base, 0, n, td=pb.alloc_tile())
    dx.run_program(pb.build())
    recs = {r.instr.opcode.name + str(i): r for i, r in enumerate(dx.records)}
    alu_rec = dx.records[1]
    sld2_rec = dx.records[2]
    # The second SLD does not wait for the ALU (different units/tiles).
    assert sld2_rec.start < alu_rec.finish or sld2_rec.start <= alu_rec.start


def test_dispatch_requires_dx100_config():
    cfg = SystemConfig.baseline()
    dram = DRAMSystem(cfg.dram)
    hier = MemoryHierarchy(cfg, dram)
    with pytest.raises(ValueError):
        DX100(cfg, hier, dram, HostMemory(1 << 20))


def test_stream_load_records_hold_no_values():
    """SLD records keep only timing (the tile holds the values), and CG's
    gathered-tile validation still reads its ILD records and passes."""
    from repro.dx100.isa import Opcode
    from repro.sim import run_dx100
    from repro.workloads import QUICK_BENCHMARKS

    wl = QUICK_BENCHMARKS["CG"]()
    seen = {}
    validate_dx = wl.validate_dx

    def capture(records, mem):
        seen["records"], seen["mem"] = records, mem
        validate_dx(records, mem)

    wl.validate_dx = capture
    run_dx100(wl, SystemConfig.dx100_scaled(tile_elems=1 << 11),
              warm=False)
    records = seen["records"]
    slds = [r for r in records if r.instr.opcode is Opcode.SLD]
    assert slds and all(r.detail.values is None for r in slds)
    assert all(r.detail.finish == r.finish for r in slds)
    assert len(wl._gather_checks) > 1
    # The gather checks are live: a wrong expected tile fails them.
    index, expect = wl._gather_checks[0]
    wl._gather_checks[0] = (index, expect + 1)
    with pytest.raises(AssertionError, match="gathered tile"):
        validate_dx(records, seen["mem"])
