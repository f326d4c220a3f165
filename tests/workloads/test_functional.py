"""Functional cross-checks: every benchmark's DX100 program reproduces its
NumPy reference, on both the functional simulator and the timing model."""

import numpy as np
import pytest

from repro.common import DX100Config, SystemConfig
from repro.dx100 import FunctionalDX100, HostMemory
from repro.dx100.api import RegWrite, WaitTiles
from repro.dx100.isa import Instr
from repro.sim import run_dx100
from repro.workloads import QUICK_BENCHMARKS, CoreWork

SMALL_TILE = 1 << 11


@pytest.mark.parametrize("name", list(QUICK_BENCHMARKS))
def test_functional_simulator_matches_reference(name):
    """Run the schedule's DX100 items on the functional simulator only."""
    wl = QUICK_BENCHMARKS[name]()
    mem = HostMemory(1 << 25)
    wl.generate(mem)
    config = DX100Config(tile_elems=SMALL_TILE)
    fx = FunctionalDX100(config, mem)
    schedule = wl.dx100_schedule(config, cores=4)
    program = [item for item in schedule
               if isinstance(item, (Instr, RegWrite, WaitTiles))]
    fx.run(program)
    wl.validate(mem)  # memory-state part of the validation


@pytest.mark.parametrize("name", list(QUICK_BENCHMARKS))
def test_timing_model_validates(name):
    """Full timing run, including the gathered-tile checks."""
    wl = QUICK_BENCHMARKS[name]()
    cfg = SystemConfig.dx100_scaled(tile_elems=SMALL_TILE)
    result = run_dx100(wl, cfg, warm=False)  # validates internally
    assert result.cycles > 0
    assert result.dram_requests > 0


@pytest.mark.parametrize("name", list(QUICK_BENCHMARKS))
def test_schedules_are_wellformed(name):
    wl = QUICK_BENCHMARKS[name]()
    mem = HostMemory(1 << 25)
    wl.generate(mem)
    schedule = wl.dx100_schedule(DX100Config(tile_elems=SMALL_TILE), cores=4)
    assert any(isinstance(item, Instr) for item in schedule)
    kinds = (Instr, RegWrite, WaitTiles, CoreWork)
    assert all(isinstance(item, kinds) for item in schedule)


@pytest.mark.parametrize("name", list(QUICK_BENCHMARKS))
def test_baseline_traces_cover_all_cores(name):
    wl = QUICK_BENCHMARKS[name]()
    mem = HostMemory(1 << 25)
    wl.generate(mem)
    traces = wl.baseline_traces(4)
    assert len(traces) == 4
    assert sum(len(t) for t in traces) > 0
    # Dependence edges reference earlier ops only.
    for trace in traces:
        for k, deps in enumerate(trace.deps):
            assert all(d < k for d in deps)


def test_dmp_streams_are_addresses():
    for name in ("IS", "CG", "XRAGE"):
        wl = QUICK_BENCHMARKS[name]()
        mem = HostMemory(1 << 25)
        wl.generate(mem)
        streams = wl.dmp_streams()
        assert streams
        for pc, addrs in streams.items():
            assert np.asarray(addrs).min() >= mem.base
