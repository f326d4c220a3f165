"""Simulation harness: runners, metrics, and cross-configuration invariants."""

import pytest

from repro.common import SystemConfig
from repro.sim import SimSystem, run_baseline, run_dx100
from repro.sim.runner import _split_groups
from repro.workloads import QUICK_BENCHMARKS, GatherFull, IntegerSort


def test_simsystem_wiring():
    system = SimSystem(SystemConfig.baseline())
    assert system.dx100 is None and system.dmp is None
    system = SimSystem(SystemConfig.dx100_system())
    assert system.dx100 is not None
    system = SimSystem(SystemConfig.dmp_system())
    assert system.dmp is not None and system.hierarchy.observers


def test_run_baseline_produces_metrics():
    result = run_baseline(GatherFull(1024))
    assert result.config == "baseline"
    assert result.cycles > 0
    assert result.instructions > 1024
    assert 0 <= result.bandwidth_utilization <= 1.0
    assert 0 <= result.row_buffer_hit_rate <= 1.0


def test_run_dx100_validates_and_counts_issue_instructions():
    result = run_dx100(GatherFull(1024))
    assert result.config == "dx100"
    assert result.extra["dx100_instructions"] > 0
    assert result.extra["coalescing"] >= 1.0


def test_run_dx100_requires_dx_config():
    with pytest.raises(ValueError):
        run_dx100(GatherFull(1024), SystemConfig.baseline())


def test_dmp_run_issues_prefetches():
    wl = QUICK_BENCHMARKS["IS"]()
    result = run_baseline(wl, SystemConfig.dmp_system(), warm=False)
    assert result.config == "dmp"
    assert result.extra["dmp_prefetches"] > 0


def test_compare_runs_all_three_configs():
    results = [run_baseline(GatherFull(1024), SystemConfig.baseline()),
               run_baseline(GatherFull(1024), SystemConfig.dmp_system()),
               run_dx100(GatherFull(1024),
                         SystemConfig.dx100_system(tile_elems=1024))]
    assert [r.config for r in results] == ["baseline", "dmp", "dx100"]
    assert results[2].speedup_over(results[0]) > 1.0


def test_split_groups_at_wait_boundaries():
    from repro.dx100 import isa
    from repro.common import DType
    from repro.dx100.api import RegWrite, WaitTiles
    i1 = isa.sld(DType.U32, 0, td=0, rs1=0, rs2=1, rs3=2)
    schedule = [RegWrite(0, 0), i1, WaitTiles((0,)), RegWrite(1, 1), i1,
                WaitTiles((0,))]
    groups = _split_groups(schedule)
    assert len(groups) == 2
    assert all(isinstance(g[-1], WaitTiles) for g in groups)


def test_speedup_over():
    a = run_baseline(GatherFull(512))
    b = run_baseline(GatherFull(512))
    assert a.speedup_over(b) == pytest.approx(b.cycles / a.cycles)


def test_scaled_configs_are_consistent():
    base = SystemConfig.baseline_scaled()
    dx = SystemConfig.dx100_scaled()
    dmp = SystemConfig.dmp_scaled()
    assert base.llc.size_bytes > dx.llc.size_bytes  # SPD area handicap
    assert dmp.dmp and dmp.llc.size_bytes == base.llc.size_bytes
    big = SystemConfig.baseline_scaled(cores=8)
    assert big.dram.channels == 4
