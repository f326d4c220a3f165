"""Engine-differential and behavioural tests for the serve loop.

Every scheduling decision in :func:`repro.serve.serve_run` depends only on
request finish cycles, which the batched array-kernel engine and the
scalar oracle produce identically — so a whole multi-tenant serve run must
be bitwise identical across engines, down to each tenant's individual tile
completion cycles.
"""

from dataclasses import replace

import pytest

from repro.common.config import DRAMConfig
from repro.serve import make_tenants, serve_run


def _specs():
    return make_tenants(2, tiles=2, tile_lines=64, seed=3, aggressor=1)


def test_multi_tenant_schedule_is_bitwise_identical_across_engines():
    reports = {
        engine: serve_run(_specs(),
                          config=replace(DRAMConfig(), engine=engine))
        for engine in ("batched", "scalar")
    }
    snaps = {e: r.golden_snapshot() for e, r in reports.items()}
    assert snaps["batched"] == snaps["scalar"]
    # Beyond the digest: every tile completion cycle, per tenant.
    for tb, ts in zip(reports["batched"].tenants, reports["scalar"].tenants):
        assert tb.completions == ts.completions


def test_serve_run_is_deterministic():
    a = serve_run(_specs()).golden_snapshot()
    b = serve_run(_specs()).golden_snapshot()
    assert a == b


def test_no_borrow_run_completes_every_tile():
    """Disabling work-conserving borrow costs throughput, never liveness."""
    specs = _specs()
    report = serve_run(specs, borrow=False)
    for spec, rec in zip(specs, report.tenants):
        assert rec.tiles == spec.tiles
        # Duplicate addresses inside a tile coalesce in the Row Table, so
        # issued lines can undercut tile_lines — but never exceed it, and
        # every issued line must reach DRAM.
        assert 0 < rec.lines <= spec.tiles * spec.tile_lines
        assert rec.dram_serviced == rec.lines
        assert rec.borrowed_inserts == 0


def test_serve_report_renders_timelines():
    report = serve_run(make_tenants(2, tiles=2, tile_lines=48))
    text = report.render()
    assert "2 tenant(s)" in text
    assert "Jain" in text
    for tenant in (0, 1):
        assert f"t{tenant} completions" in text


def test_serve_run_validations():
    with pytest.raises(ValueError):
        serve_run([])
    specs = make_tenants(1, tiles=1, tile_lines=16)
    with pytest.raises(ValueError):
        serve_run(specs + specs)
