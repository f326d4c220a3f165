"""Co-run interference study."""

import numpy as np
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


def test_namespaced_memory_prefixes_inputs():
    mem = HostMemory(1 << 20)
    for prefix in ("a:", "b:"):
        addr, view = NamespacedMemory(mem, prefix).place_input(
            "B", np.arange(16))
        assert mem.interval_of(prefix + "B").lo == addr
        assert np.shares_memory(view, mem.view(prefix + "B"))
    mem.view("b:B")[0] = 7
    assert mem.changed_inputs() == ["b:B"]


def test_corun_of_workloads_sharing_input_names():
    """Two tenants that place inputs under the same names (here the same
    workload twice) get a segment each."""
    result = run_corun([lambda: SpatterXRAGE(scale=64)] * 2,
                       SystemConfig.baseline_scaled())
    assert result.names == ["XRAGE", "XRAGE"]
    assert all(cycles > 0 for cycles in result.corun_cycles)


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
