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
        consumer = np.repeat(np.arange(len(trace)), np.diff(trace.dep_ptr))
        assert (trace.dep_idx < consumer).all()


def test_dmp_streams_are_addresses():
    for name in ("IS", "CG", "XRAGE"):
        wl = QUICK_BENCHMARKS[name]()
        mem = HostMemory(1 << 25)
        wl.generate(mem)
        streams = wl.dmp_streams()
        assert streams
        for pc, (base, scale, index) in streams.items():
            addrs = base + scale * np.asarray(index, dtype=np.int64)
            assert addrs.min() >= mem.base
            assert addrs.max() < mem.base + mem.size


@pytest.mark.parametrize("name", list(QUICK_BENCHMARKS))
def test_dmp_pc_tags_index_inside_their_stream(name):
    """``DMPEngine.observe`` reads target ``tag + distance`` of the op's
    PC stream and skips targets past its end, so a tag outside the stream
    would silently prefetch nothing: every tag a DMP-PC op carries must
    index inside the stream registered for that PC."""
    wl = QUICK_BENCHMARKS[name]()
    wl.generate(HostMemory(wl.mem_bytes))
    streams = wl.dmp_streams()
    assert streams
    tagged = 0
    for trace in wl.baseline_traces(4):
        for pc, (_, _, index) in streams.items():
            tags = trace.tag[(trace.pc == pc) & (trace.tag >= 0)]
            tagged += tags.size
            assert tags.size == 0 or tags.max() < len(index), (pc, name)
    assert tagged > 0
