"""DMP behavioural model: lookahead, coverage, conditional pollution."""

from dataclasses import replace

import numpy as np
import pytest

from repro.common import HitLevel, SystemConfig
from repro.cache import MemoryHierarchy
from repro.core import CoreModel, TraceBuilder
from repro.dram import DRAMSystem
from repro.prefetch import DMPEngine


def build(coverage=1.0, distance=4, degree=2, train=4):
    cfg = SystemConfig.dmp_system()
    cfg = replace(cfg, l1=replace(cfg.l1, prefetcher=False),
                  l2=replace(cfg.l2, prefetcher=False))
    dram = DRAMSystem(cfg.dram)
    hier = MemoryHierarchy(cfg, dram)
    dmp = DMPEngine(hier, distance=distance, degree=degree,
                    coverage=coverage, train_iters=train)
    hier.observers.append(
        lambda core, addr, pc, tag, t: dmp.observe(core, addr, pc, tag, t))
    core = CoreModel(0, cfg.core, hier, dram)
    return cfg, dram, hier, dmp, core


def indirect_trace(targets, pc=77):
    tb = TraceBuilder()
    for i, addr in enumerate(targets):
        tb.load(int(addr), pc=pc, tag=i, extra=4)
    return tb.finish()


def latencies(core):
    """Per-op demand latency of the core's last run, from its result
    columns."""
    return [complete - issue
            for issue, complete in zip(core.op_issue, core.op_complete)]


def test_prefetches_reduce_average_latency():
    """The head start shortens demand latency, it does not make hits free
    (paper: DMP reduces average memory latency ~1.4x)."""
    rng = np.random.default_rng(0)
    targets = (rng.integers(0, 1 << 20, size=256) & ~7) + (5 << 24)

    cfg, dram, hier, dmp, core = build(distance=128, degree=4)
    dmp.register_stream(77, targets)
    core.run(indirect_trace(targets))
    assert dmp.stats.get("dmp_prefetches") > 100
    with_pf = latencies(core)[64:]

    cfg2, dram2, hier2, dmp2, core2 = build()
    core2.run(indirect_trace(targets))   # stream never registered
    without_pf = latencies(core2)[64:]
    assert sum(with_pf) < 0.9 * sum(without_pf)


def test_no_prefetch_without_registration():
    cfg, dram, hier, dmp, core = build()
    targets = np.arange(64) * 4096 + (5 << 24)
    core.run(indirect_trace(targets, pc=99))
    assert dmp.stats.get("dmp_prefetches") == 0


def test_training_period_suppresses_early_prefetches():
    cfg, dram, hier, dmp, core = build(train=1000)
    targets = np.arange(64) * 4096 + (5 << 24)
    dmp.register_stream(77, targets)
    core.run(indirect_trace(targets))
    assert dmp.stats.get("dmp_prefetches") == 0


def test_coverage_limits_issue_rate():
    targets = np.arange(512) * 4096 + (5 << 24)
    cfg, dram, hier, dmp_full, core = build(coverage=1.0)
    dmp_full.register_stream(77, targets)
    core.run(indirect_trace(targets))

    cfg2, dram2, hier2, dmp_half, core2 = build(coverage=0.5)
    dmp_half.register_stream(77, targets)
    core2.run(indirect_trace(targets))
    assert dmp_half.stats.get("dmp_prefetches") < \
        0.7 * dmp_full.stats.get("dmp_prefetches")


def test_conditional_pollution_counted():
    """DMP prefetches the unconditional stream; iterations that the kernel
    skips become useless prefetches."""
    targets = np.arange(256) * 4096 + (5 << 24)
    cfg, dram, hier, dmp, core = build()
    dmp.register_stream(77, targets)
    # Only even iterations are actually executed.
    tb = TraceBuilder()
    taken = set()
    for i in range(0, 256, 2):
        tb.load(int(targets[i]), pc=77, tag=i, extra=4)
        taken.add(i)
    core.run(tb.finish())
    acc = dmp.accuracy_against({77: taken})
    assert acc < 0.75  # roughly half the prefetches were wasted


def test_prefetch_traffic_reaches_dram():
    targets = np.arange(256) * 4096 + (5 << 24)
    cfg, dram, hier, dmp, core = build()
    dmp.register_stream(77, targets)
    core.run(indirect_trace(targets))
    dram.drain()
    assert hier.stats.get("dmp_prefetch_issued") > 0


def test_invalid_coverage():
    cfg = SystemConfig.dmp_system()
    dram = DRAMSystem(cfg.dram)
    hier = MemoryHierarchy(cfg, dram)
    with pytest.raises(ValueError):
        DMPEngine(hier, coverage=1.5)
