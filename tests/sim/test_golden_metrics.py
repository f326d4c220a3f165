"""Shape and properties of the quick-suite golden file.

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
