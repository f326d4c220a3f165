"""Workloads hold each input once: as a live view of its host-memory
segment, guarded by the CRC-32 recorded when it was placed.  A DX100
schedule holds no core trace before its chunk runs."""

import tracemalloc

import numpy as np
import pytest

from repro.common import SystemConfig
from repro.dx100 import HostMemory
from repro.sim.runner import run_dx100
from repro.workloads import (
    MAIN_BENCHMARKS, QUICK_BENCHMARKS, ConjugateGradientF64,
    ConnectedComponents, CoreWork, GatherAllMiss, GatherSPD,
    IntegerSortBucketed, RMWAtomic, Scatter, SpatterKernel,
)

#: Workloads outside the registry that place inputs too.
EXTRA = {
    "IS-bucketed": lambda: IntegerSortBucketed(scale=1 << 10),
    "CG-f64": lambda: ConjugateGradientF64(scale=1 << 6),
    "CC": lambda: ConnectedComponents(scale=1 << 6, nodes=1 << 10),
    "gather-spd": lambda: GatherSPD(scale=1 << 10),
    "rmw-atomic": lambda: RMWAtomic(scale=1 << 10),
    "scatter": lambda: Scatter(scale=1 << 10),
    "gather-allmiss": lambda: GatherAllMiss(rows_per_bank=1),
    "spatter-gather": lambda: SpatterKernel(
        {"kernel": "gather", "pattern": "UNIFORM:64:3", "count": 4}),
    "spatter-scatter": lambda: SpatterKernel(
        {"kernel": "scatter", "pattern": "MS1:64:8", "count": 4}),
}


@pytest.mark.parametrize("name", [*QUICK_BENCHMARKS, *EXTRA])
def test_kept_inputs_share_memory_with_their_segments(name):
    """No workload array is a private copy of an input segment: every
    array attribute equal to an input is a view of it."""
    wl = {**QUICK_BENCHMARKS, **EXTRA}[name]()
    mem = HostMemory(wl.mem_bytes)
    wl.generate(mem)
    inputs = list(mem._input_crcs)
    assert inputs and not mem.changed_inputs()
    for segment in inputs:
        view = mem.view(segment)
        for attr, value in vars(wl).items():
            if (isinstance(value, np.ndarray) and value.dtype == view.dtype
                    and np.array_equal(value, view)):
                assert np.shares_memory(value, view), (
                    f"{name}.{attr} is a private copy of input {segment!r}")


def _change_one_element(mem: HostMemory, segment: str) -> None:
    view = mem.view(segment)
    assert view[0] != view[1]
    view[0] = view[1]


@pytest.mark.parametrize("name, segment",
                         [("XRAGE", "B"), ("CG", "col"), ("IS", "K")])
def test_an_input_changed_after_generate_fails_validation(monkeypatch, name,
                                                          segment):
    """One element of an input changed after ``generate`` is seen by the
    DX100 program and by the references, which read the same view; only
    the input check can tell, and it names the segment."""
    cls = type(QUICK_BENCHMARKS[name]())
    generate = cls.generate

    def scribbled(self, mem):
        generate(self, mem)
        _change_one_element(mem, segment)

    monkeypatch.setattr(cls, "generate", scribbled)
    with pytest.raises(AssertionError,
                       match=rf"input segment\(s\) \['{segment}'\]"):
        run_dx100(QUICK_BENCHMARKS[name](), SystemConfig.dx100_system(),
                  warm=False)


@pytest.mark.parametrize("name, segment",
                         [("XRAGE", "B"), ("CG", "col"), ("IS", "K")])
def test_an_input_changed_by_the_run_fails_validation(monkeypatch, name,
                                                      segment):
    """A run that writes an input, after the reads that used it, leaves
    every output right; the input check still names the segment."""
    cls = type(QUICK_BENCHMARKS[name]())
    validate_dx = cls.validate_dx

    def scribbled(self, records, mem):
        _change_one_element(mem, segment)
        return validate_dx(self, records, mem)

    monkeypatch.setattr(cls, "validate_dx", scribbled)
    with pytest.raises(AssertionError,
                       match=rf"input segment\(s\) \['{segment}'\]"):
        run_dx100(QUICK_BENCHMARKS[name](), SystemConfig.dx100_system(),
                  warm=False)


def test_cg_schedule_builds_no_trace_until_read():
    """CG's schedule holds its chunks' instructions and gather checks,
    under 16 bytes per residual op; its core traces, at about 100 bytes
    per op, are built only when ``build`` is called."""
    wl = MAIN_BENCHMARKS["CG"]()
    wl.generate(HostMemory(wl.mem_bytes))
    config = SystemConfig.dx100_system()
    ops = 2 * wl.nnz        # a vals load and a tile load per nonzero
    tracemalloc.start()
    try:
        schedule = wl.dx100_schedule(config.dx100, config.cores)
        _, peak = tracemalloc.get_traced_memory()
        before, _ = tracemalloc.get_traced_memory()
        traces = [item.build() for item in schedule
                  if isinstance(item, CoreWork)]
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(t) for chunk in traces for t in chunk) == ops
    assert peak < 16 * ops, peak
    assert after - before > 16 * ops, after - before
