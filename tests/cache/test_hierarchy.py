"""Hierarchy timing, MSHR coalescing/stalls, snooping, and MPKI accounting."""

import pytest

from repro.common import DRAMConfig, HitLevel, SystemConfig
from repro.cache import MemoryHierarchy
from repro.cache.batched import BatchedHierarchy
from repro.dram import DRAMSystem


@pytest.fixture()
def system():
    cfg = SystemConfig.baseline()
    dram = DRAMSystem(cfg.dram)
    return cfg, dram, MemoryHierarchy(cfg, dram)


def test_first_access_misses_to_dram_then_hits_l1(system):
    cfg, dram, h = system
    r1 = h.access(core=0, addr=0x10000, is_write=False, t=0)
    assert r1.level == HitLevel.DRAM
    done = r1.resolve(dram)
    assert done > cfg.l1.latency + cfg.l2.latency + cfg.llc.latency
    r2 = h.access(core=0, addr=0x10000, is_write=False, t=done)
    assert r2.level == HitLevel.L1
    assert r2.complete == done + cfg.l1.latency


def test_hit_latencies_accumulate_down_the_hierarchy(system):
    cfg, dram, h = system
    # Warm the line, then evict it from L1 only by filling the L1 set.
    first = h.access(0, 0, False, 0, prefetch=False)
    first.resolve(dram)
    set_stride = cfg.l1.sets * 64
    for i in range(1, cfg.l1.ways + 1):
        h.access(0, i * set_stride, False, 100 + i, prefetch=False).resolve(dram)
    r = h.access(0, 0, False, 10_000, prefetch=False)
    assert r.level == HitLevel.L2
    assert r.complete == 10_000 + cfg.l1.latency + cfg.l2.latency


def test_same_line_misses_coalesce_into_one_dram_request(system):
    cfg, dram, h = system
    a = h.access(0, 0x4000, False, 0, prefetch=False)
    b = h.access(0, 0x4008, False, 1, prefetch=False)
    assert a.level == HitLevel.DRAM and b.level == HitLevel.DRAM
    assert a.request is b.request
    assert dram.merged_stats().get("requests") == 1


def test_cross_core_llc_sharing(system):
    cfg, dram, h = system
    h.access(0, 0x8000, False, 0, prefetch=False).resolve(dram)
    r = h.access(1, 0x8000, False, 50_000, prefetch=False)
    assert r.level == HitLevel.LLC


def test_stride_prefetcher_turns_stream_into_hits(system):
    cfg, dram, h = system
    t = 0
    levels = []
    for i in range(64):
        r = h.access(0, i * 64, False, t, pc=42)
        t = r.resolve(dram)
        levels.append(r.level)
    # After training, later lines should be prefetched before demand.
    tail = levels[16:]
    assert any(lv in (HitLevel.L1, HitLevel.L2) for lv in tail)


def test_mshr_stall_bounds_outstanding_misses():
    from dataclasses import replace
    cfg = SystemConfig.baseline()
    cfg = replace(cfg, l1=replace(cfg.l1, prefetcher=False),
                  l2=replace(cfg.l2, prefetcher=False))
    dram = DRAMSystem(cfg.dram)
    h = MemoryHierarchy(cfg, dram)
    results = []
    for i in range(cfg.l1.mshrs + 4):
        # Distinct lines in distinct sets, all at t=0.
        results.append(h.access(0, i * 64 * cfg.l1.sets, False, 0,
                                prefetch=False))
    assert h.stats.get("l1_mshr_stalls") > 0
    # Stalled accesses were issued later than t=0.
    assert max(r.issue for r in results) > 0


def test_snoop_and_invalidate(system):
    cfg, dram, h = system
    h.access(0, 0xA000, False, 0, prefetch=False).resolve(dram)
    assert h.snoop(0xA000)
    h.invalidate(0xA000)
    assert not h.snoop(0xA000)


@pytest.mark.parametrize("hierarchy_cls", [MemoryHierarchy,
                                           BatchedHierarchy])
def test_invalidate_drops_line_from_every_level(hierarchy_cls):
    cfg = SystemConfig.baseline()
    dram = DRAMSystem(cfg.dram)
    h = hierarchy_cls(cfg, dram)
    h.llc_access(0xA000, is_write=False, t=0).resolve(dram)
    for cache in (*h.l1, *h.l2):
        cache.insert(0xA000)
    h.l1[1].insert(0xB000)
    h.invalidate(0xA010)  # any byte of the line
    assert not any(c.lookup(0xA000) for c in (*h.l1, *h.l2, h.llc))
    assert h.snoop(0xB000)


def test_llc_direct_access_skips_private_caches(system):
    cfg, dram, h = system
    r = h.llc_access(0xC000, is_write=False, t=0)
    assert r.level == HitLevel.DRAM
    r.resolve(dram)
    # The line is in the LLC but not in any L1.
    assert h.llc.lookup(0xC000, update_lru=False)
    assert not h.l1[0].lookup(0xC000, update_lru=False)
    r2 = h.llc_access(0xC000, is_write=False, t=10_000)
    assert r2.level == HitLevel.LLC


def test_dirty_llc_eviction_writes_back(system):
    cfg, dram, h = system
    # Construct a small LLC to force evictions quickly.
    small = SystemConfig.baseline()
    from dataclasses import replace
    small = replace(small, llc=replace(small.llc, size_bytes=64 * 16 * 4,
                                       ways=4, mshrs=16))
    dram2 = DRAMSystem(small.dram)
    h2 = MemoryHierarchy(small, dram2)
    for i in range(64):
        h2.access(0, i * 64, is_write=True, t=i * 10, prefetch=False)
    dram2.drain()
    assert dram2.merged_stats().get("writes") > 0


def test_mpki(system):
    cfg, dram, h = system
    for i in range(10):
        h.access(0, i * 64 * cfg.l1.sets, False, 0, prefetch=False)
    assert h.mpki("l1", kilo_instructions=1.0) == 10
    assert h.mpki("l1", kilo_instructions=0) == 0.0
