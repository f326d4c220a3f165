"""Scratchpad, register file, TLB, and the coherency machinery."""

import numpy as np
import pytest

from repro.common import DX100Config, Interval
from repro.dx100 import (
    SPD_BASE, CoherencyAgent, RegionCoherence, RegisterFile, Scratchpad, TLB,
)
from repro.dx100.hostmem import PAGE


def test_scratchpad_write_read_ready():
    spd = Scratchpad(DX100Config(tile_elems=8))
    spd.write(0, np.arange(5), ready_at=100)
    assert spd.read(0).tolist() == [0, 1, 2, 3, 4]
    assert spd.ready_at(0) == 100
    assert spd.tile(0).size == 5


def test_scratchpad_capacity_and_bounds():
    spd = Scratchpad(DX100Config(tile_elems=4, num_tiles=2))
    with pytest.raises(ValueError):
        spd.write(0, np.arange(5), ready_at=0)
    with pytest.raises(IndexError):
        spd.tile(2)
    with pytest.raises(ValueError):
        spd.read(1)  # never written


def test_scratchpad_addresses():
    cfg = DX100Config(tile_elems=16, num_tiles=4)
    spd = Scratchpad(cfg)
    assert spd.elem_addr(0, 0) == SPD_BASE
    assert spd.elem_addr(1, 2) == SPD_BASE + (16 + 2) * 4
    lo, hi = spd.region()
    assert hi - lo == 4 * 16 * 4


def test_register_file():
    rf = RegisterFile(DX100Config())
    rf.write(3, 42)
    assert rf.read(3) == 42
    assert len(rf) == 32
    with pytest.raises(IndexError):
        rf.write(32, 0)
    with pytest.raises(IndexError):
        rf.read(-1)


def test_tlb_preload_avoids_misses():
    tlb = TLB(DX100Config(tlb_miss_penalty=100))
    tlb.preload(0, 4 * PAGE)
    addr, penalty = tlb.translate(3 * PAGE + 123)
    assert addr == 3 * PAGE + 123 and penalty == 0
    _, penalty = tlb.translate(10 * PAGE)
    assert penalty == 100
    # Second touch hits.
    _, penalty = tlb.translate(10 * PAGE + 64)
    assert penalty == 0


def test_tlb_capacity_lru():
    cfg = DX100Config(tlb_miss_penalty=7)
    tlb = TLB(cfg)
    for page in range(cfg.tlb_entries + 1):
        tlb.translate(page * PAGE)
    # Page 0 (LRU) was evicted; the most recent page is still resident.
    assert tlb.translate(0)[1] == 7
    assert tlb.translate(cfg.tlb_entries * PAGE)[1] == 0


def test_tlb_vectorized_tile_translation():
    tlb = TLB(DX100Config(tlb_miss_penalty=50))
    addrs = np.array([0, 64, PAGE, PAGE + 8, 3 * PAGE])
    penalty = tlb.translate_tile(addrs)
    assert penalty == 3 * 50  # three distinct pages, all cold
    assert tlb.translate_tile(addrs) == 0


def test_coherency_agent_v_bits():
    agent = CoherencyAgent()
    agent.core_read(SPD_BASE)
    agent.core_read(SPD_BASE + 64)
    agent.core_read(SPD_BASE + 10_000)
    assert agent.tracked_lines == 3
    live = agent.invalidate_range(SPD_BASE, SPD_BASE + 128)
    assert live == 2
    assert agent.tracked_lines == 1


class _RecordingHierarchy:
    def __init__(self):
        self.invalidated = []

    def invalidate(self, addr):
        self.invalidated.append(addr)


def _scan_invalidate(agent, lo, hi, hierarchy):
    """The original whole-set scan, kept here as the reference."""
    first, last = lo // agent.line_bytes, -(-hi // agent.line_bytes)
    live = [line for line in agent._valid if first <= line < last]
    for line in live:
        agent._valid.discard(line)
        hierarchy.invalidate(line * agent.line_bytes)
    agent.stats.add("spd_invalidations", len(live))
    return len(live)


def test_invalidate_range_matches_whole_set_scan():
    """Probing the range or scanning the set (whichever is smaller) gives
    the scan's return value, counter, V bits and invalidated lines, on
    random V-bit sets both smaller and larger than the range."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        fast, ref = CoherencyAgent(), CoherencyAgent()
        lines = rng.integers(0, 4096, size=int(rng.integers(0, 600)))
        for agent in (fast, ref):
            for line in lines.tolist():
                agent.core_read(SPD_BASE + 64 * line + int(line % 64))
        fast_h, ref_h = _RecordingHierarchy(), _RecordingHierarchy()
        for _ in range(4):
            lo = SPD_BASE + int(rng.integers(0, 4096 * 64))
            hi = lo + int(rng.integers(0, 2048 * 64))
            assert (fast.invalidate_range(lo, hi, fast_h)
                    == _scan_invalidate(ref, lo, hi, ref_h))
            assert fast._valid == ref._valid
            assert sorted(fast_h.invalidated) == sorted(ref_h.invalidated)
            assert (fast.stats.get("spd_invalidations")
                    == ref.stats.get("spd_invalidations"))


def test_core_read_range_sets_every_line_of_the_range():
    agent, ref = CoherencyAgent(), CoherencyAgent()
    lo, hi = SPD_BASE + 3 * 64, SPD_BASE + 40 * 64
    agent.core_read_range(lo, hi)
    for addr in range(lo, hi, 64):
        ref.core_read(addr)
    assert agent._valid == ref._valid and agent.tracked_lines == 37


def test_region_coherence_swmr():
    rc = RegionCoherence(message_cycles=100)
    rc.register(Interval(0, 1000))
    # First writer acquires for free.
    assert rc.acquire(10, instance=0, write=True, t=0) == 0
    # Second instance must pay an ownership transfer.
    assert rc.acquire(10, instance=1, write=True, t=50) == 150
    # Re-acquiring while exclusive is free.
    assert rc.acquire(10, instance=1, write=True, t=200) == 200


def test_region_lock_blocks_other_instances():
    rc = RegionCoherence()
    rc.register(Interval(0, 100))
    rc.acquire(0, instance=0, write=True, t=0)
    rc.lock(0, instance=0)
    with pytest.raises(RuntimeError):
        rc.acquire(0, instance=1, write=True, t=10)
    rc.unlock(0, instance=0)
    rc.acquire(0, instance=1, write=True, t=10)


def test_region_registration_rules():
    rc = RegionCoherence()
    rc.register(Interval(0, 100))
    with pytest.raises(ValueError):
        rc.register(Interval(50, 150))
    with pytest.raises(KeyError):
        rc.acquire(5000, instance=0, write=False, t=0)
    with pytest.raises(RuntimeError):
        rc.lock(0, instance=3)  # not the owner
