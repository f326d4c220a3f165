"""Co-run interference study."""

import pytest

from repro.common import SystemConfig
from repro.sim.corun import NamespacedMemory, run_corun
from repro.dx100 import HostMemory
from repro.workloads import IntegerSort, SpatterXRAGE


def test_namespaced_memory_isolates_names():
    mem = HostMemory(1 << 20)
    a = NamespacedMemory(mem, "a:")
    b = NamespacedMemory(mem, "b:")
    base_a = a.alloc("X", 16, "int64")
    base_b = b.alloc("X", 16, "int64")
    assert base_a != base_b
    a.view("X")[:] = 1
    b.view("X")[:] = 2
    assert mem.view("a:X")[0] == 1 and mem.view("b:X")[0] == 2
    assert a.base == mem.base  # pass-through attributes


def test_corun_reports_interference():
    factories = [
        lambda: IntegerSort(scale=1 << 13, bucket_space=1 << 19),
        lambda: SpatterXRAGE(scale=1 << 13, region=1 << 18),
    ]
    result = run_corun(factories, SystemConfig.baseline_scaled())
    assert result.names == ["IS", "XRAGE"]
    assert result.corun_finish >= max(result.corun_cycles) - 1
    # Sharing the memory system cannot make either workload faster; with
    # two indirect streams it typically slows both down.
    for i in range(2):
        assert result.slowdown(i) > 0.95


def test_corun_validations():
    with pytest.raises(ValueError):
        run_corun([lambda: IntegerSort(scale=64)])
    with pytest.raises(ValueError):
        run_corun([lambda: IntegerSort(scale=64)] * 3,
                  SystemConfig.baseline_scaled())  # 4 cores / 3 workloads
