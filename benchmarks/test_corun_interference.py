"""Inter-workload interference (extension of the paper's Section 1
motivation).

Two indirect workloads co-running on disjoint cores of one system thrash
each other's DRAM rows and shared LLC; offloading to DX100 removes the
interference channel because the accelerator re-derives its own row-sorted
order per tile regardless of what else is in the buffer.
"""

from repro.common import SystemConfig
from repro.sim import run_dx100
from repro.sim.corun import run_corun
from repro.workloads import IntegerSort, SpatterXRAGE

from mainsweep import record

FACTORIES = [
    lambda: IntegerSort(scale=1 << 14, bucket_space=1 << 20),
    lambda: SpatterXRAGE(scale=1 << 14, region=1 << 19),
]


def _sweep():
    corun = run_corun(FACTORIES, SystemConfig.baseline_scaled())
    dx = [run_dx100(f(), SystemConfig.dx100_scaled(), warm=False)
          for f in FACTORIES]
    return corun, dx


def test_corun_interference(benchmark):
    corun, dx = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    lines = [f"{'workload':8s} {'solo':>9s} {'co-run':>9s} "
             f"{'slowdown':>9s} {'dx100':>9s}"]
    for i, name in enumerate(corun.names):
        lines.append(
            f"{name:8s} {corun.solo_cycles[i]:9d} "
            f"{corun.corun_cycles[i]:9d} {corun.slowdown(i):8.2f}x "
            f"{dx[i].cycles:9d}"
        )
    record("corun_interference", lines)
    # Both workloads suffer (or at best break even) when sharing the
    # memory system, and DX100 beats even the solo baselines.
    assert all(corun.slowdown(i) > 0.95 for i in range(2))
    for i in range(2):
        assert dx[i].cycles < corun.solo_cycles[i]
