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

