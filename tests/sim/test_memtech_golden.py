"""Shape and properties of the memory-technology golden file.

``tests/golden/memory_technology.json`` pins the local/ddr5/cxl/mixed
scenario grid (quick IS, baseline + DX100) — the far-memory analogue of
the quick-suite goldens.  ``tests/sim/test_golden.py`` re-runs the grid
and diffs it exactly; these tests check that the committed numbers are
well formed and still encode the far-memory thesis.
"""

import json

from repro.sim import golden
from repro.sim.memtech import MEMTECH_FIELDS, MEMTECH_SCENARIOS


def test_memtech_golden_file_is_committed_and_well_formed():
    payload = json.loads(golden.SUITES["memtech"].path.read_text())
    assert set(payload) == {"_comment", "metrics"}
    metrics = payload["metrics"]
    assert set(metrics) == set(MEMTECH_SCENARIOS)
    for scenario, runs in metrics.items():
        assert set(runs) == {"baseline", "dx100"}, scenario
        for mode, fields in runs.items():
            assert set(fields) == set(MEMTECH_FIELDS), (scenario, mode)
    # The far-tier rows really went through the link; the local rows
    # really did not.
    for scenario in ("cxl", "mixed"):
        for mode in ("baseline", "dx100"):
            assert metrics[scenario][mode]["far_serviced"] > 0, scenario
    for scenario in ("local", "ddr5"):
        for mode in ("baseline", "dx100"):
            assert metrics[scenario][mode]["far_serviced"] == 0, scenario


def test_golden_pins_the_far_memory_thesis():
    """The committed numbers themselves encode the headline claim: the
    link hurts the baseline far more than DX100, so the speedup grows
    from local DDR4 to all-far CXL."""
    pinned = golden.load("memtech")

    def speedup(scenario):
        return (pinned[scenario]["baseline"]["cycles"]
                / pinned[scenario]["dx100"]["cycles"])

    assert speedup("cxl") > speedup("local") * 1.5
    assert pinned["cxl"]["baseline"]["cycles"] > \
        2 * pinned["local"]["baseline"]["cycles"]
    dx_degradation = (pinned["cxl"]["dx100"]["cycles"]
                      / pinned["local"]["dx100"]["cycles"])
    base_degradation = (pinned["cxl"]["baseline"]["cycles"]
                        / pinned["local"]["baseline"]["cycles"])
    assert dx_degradation < base_degradation / 2
