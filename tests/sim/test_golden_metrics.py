"""Shape and properties of the quick-suite and tenancy golden files.

``tests/sim/test_golden.py`` re-runs every suite and diffs it exactly
against its committed file; these tests check that the committed numbers
themselves are well formed and still say what the model claims.
"""

import json

from repro.sim import golden
from repro.sim.sweep import GOLDEN_FIELDS


def test_golden_file_is_committed_and_well_formed():
    payload = json.loads(golden.SUITES["quick"].path.read_text())
    assert set(payload) == {"_comment", "metrics"}
    metrics = payload["metrics"]
    assert len(metrics) == 12, sorted(metrics)
    for name, runs in metrics.items():
        assert set(runs) == {"baseline", "dmp", "dx100"}, name
        for mode, fields in runs.items():
            assert set(fields) == set(GOLDEN_FIELDS), (name, mode)


# ------------------------------------------------------------ tenancy golden

def test_tenancy_golden_file_is_committed_and_well_formed():
    scenarios = golden.load("tenancy")
    assert {"t1", "t2", "t2_aggressor", "t4"} <= set(scenarios)
    for name, entry in scenarios.items():
        assert "engine" not in entry, name    # an input, not a measurement
        assert entry["total_cycles"] > 0, name
        assert 0.0 < entry["jain"] <= 1.0, name
        for tenant, rec in entry["tenants"].items():
            assert rec["p50"] <= rec["p99"], (name, tenant)
            assert rec["dram_serviced"] == rec["lines"], (name, tenant)


def test_single_tenant_serve_degenerates_to_untagged_run():
    """tenants=1 must replay the untagged path cycle for cycle.

    The only admissible difference is the per-tenant DRAM counters
    themselves (absent when untagged); every latency, cycle count, and
    fairness figure must be bitwise identical.
    """
    from repro.serve import make_tenants, serve_run
    specs = make_tenants(1, tiles=3, tile_lines=96)
    tagged = serve_run(specs, tag_requests=True).golden_snapshot()
    untagged = serve_run(specs, tag_requests=False).golden_snapshot()
    for snap in (tagged, untagged):
        for rec in snap["tenants"].values():
            for key in ("dram_serviced", "dram_bytes", "dram_row_hits"):
                rec.pop(key)
    assert tagged == untagged


def test_tenant_tagged_quick_run_matches_pinned_golden():
    """Threading tenant tags through SimSystem must not move any metric.

    Runs one quick benchmark with every core and the DX100 instance
    tagged as tenant 0 and compares the pinned RunResult fields against
    the committed golden values for the untagged run.
    """
    from repro.sim.runner import run_dx100
    from repro.sim.sweep import CONFIG_BUILDERS
    from repro.workloads import QUICK_BENCHMARKS
    pinned = golden.load("quick")
    name = sorted(pinned)[0]
    result = run_dx100(QUICK_BENCHMARKS[name](), CONFIG_BUILDERS["dx100"](4),
                       warm=False, tenant=0)
    for fld in GOLDEN_FIELDS:
        assert getattr(result, fld) == pinned[name]["dx100"][fld], fld
