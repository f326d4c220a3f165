"""Table 3 configuration presets."""

from dataclasses import replace

import pytest

from repro.common import (CacheConfig, CoreConfig, DDR4Timing, DRAMConfig,
                          DX100Config, SystemConfig, ns_to_cycles)


def test_timing_matches_table3():
    t = DDR4Timing()
    assert t.tCK == 2                 # 625 ps at 3.2 GHz
    assert t.tRP == 40 and t.tRCD == 40   # 12.5 ns
    assert t.tCCD_S == 8 and t.tCCD_L == 16
    assert t.tRTP == 24
    assert t.tRAS == 104
    assert t.tRC == t.tRAS + t.tRP


def test_dram_peak_bandwidth_is_51_2_gbps():
    cfg = DRAMConfig()
    assert cfg.peak_bw_gbps == pytest.approx(51.2, rel=1e-3)
    assert cfg.banks_total == 32     # 2ch x 1rank x 4bg x 4banks


def test_ns_to_cycles_rounding():
    assert ns_to_cycles(1.0) == 3
    assert ns_to_cycles(2.5) == 8
    assert ns_to_cycles(0.0) == 0


def test_cache_geometry():
    l1 = CacheConfig("L1D", 32 * 1024, 8, latency=4, mshrs=16)
    assert l1.sets == 64
    with pytest.raises(ValueError):
        CacheConfig("bad", 1000, 3, latency=1, mshrs=1)


def test_baseline_preset_matches_table3():
    cfg = SystemConfig.baseline()
    assert cfg.cores == 4
    assert cfg.core.rob_size == 224
    assert cfg.core.lq_size == 72 and cfg.core.sq_size == 56
    assert cfg.llc.size_bytes == 10 * 1024 * 1024
    assert cfg.llc.mshrs == 256
    assert cfg.dram.request_buffer == 32
    assert cfg.dx100 is None


def test_dx100_preset_shrinks_llc_by_2mb():
    cfg = SystemConfig.dx100_system()
    assert cfg.dx100 is not None
    assert cfg.llc.size_bytes == 8 * 1024 * 1024
    assert cfg.llc.ways == 16
    assert cfg.dx100.tile_elems == 16 * 1024
    assert cfg.dx100.spd_bytes == 2 * 1024 * 1024


def test_scaled_preset_doubles_channels():
    cfg = SystemConfig.baseline(cores=8)
    assert cfg.dram.channels == 4
    assert cfg.llc.size_bytes == 20 * 1024 * 1024


def test_dmp_preset():
    cfg = SystemConfig.dmp_system()
    assert cfg.dmp and cfg.dx100 is None
    assert cfg.llc.size_bytes == 10 * 1024 * 1024


@pytest.mark.parametrize("cls, field", [
    *((CoreConfig, f) for f in ("width", "rob_size", "lq_size", "sq_size",
                                "iq_size")),
    (DRAMConfig, "request_buffer"),
    *((DX100Config, f) for f in (
        "tile_elems", "num_tiles", "num_registers", "row_table_rows",
        "row_table_cols", "request_table", "alu_lanes", "tlb_entries",
        "fill_rate", "drain_rate", "stream_issue_rate")),
    (SystemConfig, "dx100_instances"),
])
def test_zero_size_or_rate_rejected_naming_the_field(cls, field):
    """A zero size or rate used to finish with nonsense cycles (a zero ROB
    or drain rate) or fail deep in the engine; it is refused at
    construction, and ``replace`` re-validates."""
    with pytest.raises(ValueError, match=rf"\b{cls.__name__}\.{field}\b"):
        cls(**{field: 0})
    with pytest.raises(ValueError, match=field):
        replace(cls(), **{field: 0})


@pytest.mark.parametrize("policy", ["bogus", "Closed", ""])
def test_unknown_page_policy_rejected_naming_the_field(policy):
    """Any policy other than ``"closed"`` used to run silently as open-page
    in both engines, so a typo returned the wrong model's cycles."""
    with pytest.raises(ValueError, match=r"\bDRAMConfig\.page_policy\b"):
        DRAMConfig(page_policy=policy)
    assert DRAMConfig(page_policy="closed").page_policy == "closed"


@pytest.mark.parametrize("cls, field, bad", [
    (DRAMConfig, "scheduler", "fifo"),
    (DRAMConfig, "engine", "fast"),
    (SystemConfig, "frontend", "x"),
])
def test_unknown_engine_or_policy_name_rejected_at_construction(cls, field,
                                                                bad):
    """Scheduler, engine and front-end names were once checked only when
    a run built its controllers, so a bad name survived every config
    step until then.  Construction and ``replace`` now refuse it."""
    with pytest.raises(ValueError, match=rf"\b{cls.__name__}\.{field}\b"):
        cls(**{field: bad})
    with pytest.raises(ValueError, match=field):
        replace(cls(), **{field: bad})
