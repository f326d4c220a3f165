"""Ablations of DX100's three bandwidth mechanisms (DESIGN.md §1).

Not a paper figure — these isolate each mechanism's contribution, using
the configuration knobs the implementation exposes:

* **reordering** — shrink the Row Table to 1 BCAM entry per slice, so the
  table drains after almost every insert and same-row grouping disappears;
* **FR-FCFS** — run the baseline memory controller with strict FCFS;
* **coalescing** — measured directly as the duplicate-line factor on a
  workload with repeated indices.
"""

from dataclasses import replace

import pytest

from repro.common import DX100Config, SystemConfig
from repro.sim import run_baseline, run_dx100
from repro.workloads import GatherAllMiss, IntegerSort

from mainsweep import record


def _dx_config(**kw) -> SystemConfig:
    cfg = SystemConfig.dx100_system()
    return replace(cfg, dx100=replace(cfg.dx100, **kw))


def test_ablation_row_table_reordering(benchmark):
    """A 1-entry Row Table destroys the reordering benefit."""
    def measure():
        wl = lambda: GatherAllMiss(rbh=0.0, chi=True, bgi=True)
        full = run_dx100(wl(), _dx_config())
        tiny = run_dx100(wl(), _dx_config(row_table_rows=1))
        return full, tiny

    full, tiny = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        f"row table 64x8: cycles {full.cycles}, RBH "
        f"{full.row_buffer_hit_rate:.2f}, BW {full.bandwidth_utilization:.2f}",
        f"row table  1x8: cycles {tiny.cycles}, RBH "
        f"{tiny.row_buffer_hit_rate:.2f}, BW {tiny.bandwidth_utilization:.2f}",
    ]
    record("ablation_row_table", lines)
    assert full.row_buffer_hit_rate > tiny.row_buffer_hit_rate + 0.2
    assert full.cycles < tiny.cycles


def test_ablation_frfcfs_vs_fcfs(benchmark):
    """Controller scheduling matters little either way — which is the
    paper's core argument from the other direction.  For the *baseline*,
    FR-FCFS's 32-request window can't find row pairs in random indirect
    traffic; for *DX100*, the requests arrive already row-sorted and
    interleaved, so even strict FCFS keeps the row hits."""
    def measure():
        def fcfs(cfg):
            return replace(cfg, dram=replace(cfg.dram, scheduler="fcfs"))
        wl = lambda: IntegerSort(scale=1 << 14)
        base_fr = run_baseline(wl(), SystemConfig.baseline_scaled(),
                               warm=False)
        base_fc = run_baseline(wl(), fcfs(SystemConfig.baseline_scaled()),
                               warm=False)
        dx_fr = run_dx100(wl(), SystemConfig.dx100_scaled(), warm=False)
        dx_fc = run_dx100(wl(), fcfs(SystemConfig.dx100_scaled()),
                          warm=False)
        return base_fr, base_fc, dx_fr, dx_fc

    base_fr, base_fc, dx_fr, dx_fc = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    lines = [
        f"baseline FR-FCFS: cycles {base_fr.cycles}, "
        f"RBH {base_fr.row_buffer_hit_rate:.2f}",
        f"baseline FCFS:    cycles {base_fc.cycles}, "
        f"RBH {base_fc.row_buffer_hit_rate:.2f}",
        f"dx100    FR-FCFS: cycles {dx_fr.cycles}, "
        f"RBH {dx_fr.row_buffer_hit_rate:.2f}",
        f"dx100    FCFS:    cycles {dx_fc.cycles}, "
        f"RBH {dx_fc.row_buffer_hit_rate:.2f}",
    ]
    record("ablation_scheduler", lines)
    # DX100's pre-sorted request stream keeps its row hits under FCFS.
    assert dx_fc.row_buffer_hit_rate > 0.5
    assert dx_fc.cycles < 1.4 * dx_fr.cycles


def test_ablation_coalescing(benchmark):
    """Duplicate indices coalesce into single line fetches."""
    def measure():
        # IS keys over a *small* bucket space repeat lines heavily.
        dense = run_dx100(IntegerSort(scale=1 << 14, bucket_space=1 << 14),
                          SystemConfig.dx100_scaled(), warm=False)
        sparse = run_dx100(IntegerSort(scale=1 << 14, bucket_space=1 << 22),
                           SystemConfig.dx100_scaled(), warm=False)
        return dense, sparse

    dense, sparse = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        f"dense buckets : coalescing {dense.extra['coalescing']:.2f}, "
        f"dram requests {dense.dram_requests:.0f}",
        f"sparse buckets: coalescing {sparse.extra['coalescing']:.2f}, "
        f"dram requests {sparse.dram_requests:.0f}",
    ]
    record("ablation_coalescing", lines)
    assert dense.extra["coalescing"] > 2 * sparse.extra["coalescing"]
    assert dense.dram_requests < sparse.dram_requests
