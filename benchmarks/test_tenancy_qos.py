"""Tenant-count x interference sweep over the serving layer.

Runs the canonical tenancy scenarios (the same grid the golden file pins):
one tenant (degenerate), two symmetric tenants, two tenants with an
admission-boosted aggressor, and four tenants — and reports each tenant's
p50/p99 tile latency, throughput, and the run's Jain fairness index.

The sweep is golden-pinned: any drift from ``tests/golden/tenancy_quick.json``
fails the bench, the same contract as the quick-suite metrics.
"""

import pytest

from repro.serve import tenancy_scenarios
from repro.sim import golden

from mainsweep import record


def test_tenancy_qos_sweep(benchmark):
    scenarios = benchmark.pedantic(tenancy_scenarios, rounds=1, iterations=1)
    lines = [f"{'scenario':>12s} {'tenant':>6s} {'tiles':>5s} {'lines':>5s} "
             f"{'p50':>7s} {'p99':>7s} {'adm.max':>7s} "
             f"{'tput(l/kc)':>10s} {'jain':>6s}"]
    for name, report in scenarios.items():
        for t in report.tenants:
            lines.append(
                f"{name:>12s} {t.tenant_id:>6d} {t.tiles:>5d} {t.lines:>5d} "
                f"{t.p50:>7d} {t.p99:>7d} {t.max_admission_delay:>7d} "
                f"{1000.0 * t.throughput:>10.2f} {report.jain:>6.4f}")
    record("tenancy_qos", lines)

    # Interference facts the model must reproduce: the aggressor's
    # locality-free flood inflates the victim's tail latency vs the
    # symmetric co-run — while the fairness layer keeps Jain high, so the
    # interference lands in latency, not in starved throughput.
    symmetric, aggressed = scenarios["t2"], scenarios["t2_aggressor"]
    assert aggressed.tenants[0].p99 > symmetric.tenants[0].p99
    assert aggressed.jain >= 0.95
    # More tenants sharing the same DRAM stretch everyone's tail latency
    # past the solo run's.
    solo_p99 = scenarios["t1"].tenants[0].p99
    assert all(t.p99 >= solo_p99 for t in scenarios["t4"].tenants)

    # Golden pin: the sweep must reproduce the committed numbers exactly.
    snapshot = {name: report.golden_snapshot()
                for name, report in scenarios.items()}
    problems = golden.diff(snapshot, golden.load("tenancy"))
    assert not problems, "\n".join(problems)
