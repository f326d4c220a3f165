"""The registry workloads' bulk-built traces equal the reference per-op
loops (``reference_traces``) column for column: baseline traces on 4 cores
and on 1, and every residual ``CoreWork`` of the DX100 schedules.  Built
as blocks of a few iterations, a core's trace equals its whole part's."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import DX100Config
from repro.core.trace import BlockTrace, Trace, join_blocks
from repro.sim.runner import run_baseline
from repro.sim.sweep import CONFIG_BUILDERS
from repro.dx100 import HostMemory
from repro.workloads import (
    BFS, GZP, GZPI, GZZ, GZZI, MAIN_BENCHMARKS, QUICK_BENCHMARKS,
    BetweennessCentrality, ConjugateGradient, CoreWork, IntegerSort,
    PageRank, RadixJoinChaining, RadixJoinHistogram, SpatterXRAGE,
)
from tests.workloads import reference_traces as ref

# The six workloads of the benchmark's main-cpu set.
MAIN_CPU = ("IS", "CG", "BFS", "PR", "PRH", "XRAGE")


def assert_same_traces(got: list[Trace | BlockTrace],
                       want: list[Trace]) -> None:
    assert len(got) == len(want)
    for t, (g, w) in enumerate(zip(got, want)):
        g = join_blocks(g.blocks())
        for name in Trace.COLUMNS:
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (
                f"trace {t}: column {name!r} differs")
        assert g.tail_instrs == w.tail_instrs, f"trace {t}: tail differs"


def assert_same_residual(wl, config: DX100Config, cores: int) -> None:
    got = [item for item in wl.dx100_schedule(config, cores)
           if isinstance(item, CoreWork)]
    want = ref.residual(wl, config, cores)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_traces(g.build(), w.build())


def generated(wl):
    wl.generate(HostMemory(wl.mem_bytes))
    return wl


@pytest.mark.parametrize("cores", [4, 1])
@pytest.mark.parametrize("name", list(QUICK_BENCHMARKS))
def test_quick_baseline_traces_match_reference(name, cores):
    wl = generated(QUICK_BENCHMARKS[name]())
    assert_same_traces(wl.baseline_traces(cores),
                       ref.BASELINE[name](wl, cores))


@pytest.mark.parametrize("tile", [DX100Config().tile_elems, 1 << 9])
@pytest.mark.parametrize("name", list(QUICK_BENCHMARKS))
def test_quick_residual_core_work_matches_reference(name, tile):
    wl = generated(QUICK_BENCHMARKS[name]())
    assert_same_residual(wl, DX100Config(tile_elems=tile), cores=4)


@pytest.mark.parametrize("name", MAIN_CPU)
def test_main_scale_baseline_traces_match_reference(name):
    wl = generated(MAIN_BENCHMARKS[name]())
    assert_same_traces(wl.baseline_traces(4), ref.BASELINE[name](wl, 4))


#: Workloads whose core part must stay one block, and why.
ONE_BLOCK = {
    "PRH": "a core runs its histogram pass over its whole part, then its "
           "scatter pass, so an iteration's ops are not contiguous",
}


@pytest.mark.parametrize("name", list(QUICK_BENCHMARKS))
def test_quick_traces_built_as_blocks_equal_the_whole_part(name):
    """With ``trace_block`` patched to a few iterations, each core's
    baseline trace is a :class:`BlockTrace` whose blocks, joined, equal
    the trace of the core's whole part column for column; only the first
    block of each core is built by ``baseline_traces``."""
    whole = generated(QUICK_BENCHMARKS[name]()).baseline_traces(4)
    wl = generated(QUICK_BENCHMARKS[name]())
    if name in ONE_BLOCK:
        assert wl.trace_block is None
        return
    built = []
    core_trace = wl.core_trace
    wl.core_trace = lambda part: built.append(part) or core_trace(part)
    wl.trace_block = 3
    blocked = wl.baseline_traces(4)
    assert all(isinstance(t, BlockTrace) for t in blocked)
    assert len(built) == 4
    for got, want in zip(blocked, whole):
        assert join_blocks(got.blocks()) == want
    assert len(built) > 4 * 2


@pytest.mark.parametrize("frontend", ["batched", "scalar"])
@pytest.mark.parametrize("mode", ["baseline", "dmp"])
def test_blocked_run_equals_the_whole_part_run(mode, frontend):
    """A baseline run over blocks of 7 iterations gives the run over one
    block per core, every result field, on both front ends."""
    config = dataclasses.replace(CONFIG_BUILDERS[mode](4), frontend=frontend)
    results = []
    for block in (None, 7):
        wl = QUICK_BENCHMARKS["BFS"]()
        wl.trace_block = block
        results.append(run_baseline(wl, config).__dict__)
    assert results[0] == results[1]


def test_xrage_indices_match_per_block_reference():
    for scale, block in ((1 << 12, 16), (1000, 16), (37, 5), (3, 16)):
        wl = generated(SpatterXRAGE(scale=scale, block=block,
                                    region=1 << 12, seed=3))
        want = ref.xrage_indices(scale, block, 1 << 12, seed=3)
        assert wl.indices.dtype == want.dtype
        assert np.array_equal(wl.indices, want)


# ------------------------------------------------------------- hypothesis


def _drop_rows(wl, rng) -> None:
    """Give a random half of a graph's nodes no edges (degree-0 rows)."""
    degrees = np.diff(wl.h)
    degrees[rng.random(len(degrees)) < 0.5] = 0
    wl.h = np.zeros(len(degrees) + 1, dtype=np.int64)
    wl.h[1:] = np.cumsum(degrees)
    wl.adj = wl.adj[:int(wl.h[-1])]


SMALL = {
    "IS": lambda s, seed, k: IntegerSort(s, seed, bucket_space=64),
    "CG": lambda s, seed, k: ConjugateGradient(s, seed, avg_nnz=k,
                                               columns=64),
    "BFS": lambda s, seed, k: BFS(s, seed, nodes=128, degree=k + 1),
    "PR": lambda s, seed, k: PageRank(s, seed, nodes=128, degree=k + 1),
    "BC": lambda s, seed, k: BetweennessCentrality(s, seed, nodes=128,
                                                   degree=k + 1),
    "PRH": lambda s, seed, k: RadixJoinHistogram(s, seed, partitions=16,
                                                 table_space=256),
    "PRO": lambda s, seed, k: RadixJoinChaining(s, seed, buckets=16),
    "GZZ": lambda s, seed, k: GZZ(s, seed),
    "GZP": lambda s, seed, k: GZP(s, seed),
    "GZZI": lambda s, seed, k: GZZI(s, seed, zones=64, corners=k + 2),
    "GZPI": lambda s, seed, k: GZPI(s, seed, zones=64, corners=k + 2),
    "XRAGE": lambda s, seed, k: SpatterXRAGE(s, seed, block=k + 1,
                                             region=256),
}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(SMALL)), scale=st.integers(1, 24),
       seed=st.integers(0, 1000), knob=st.integers(0, 3),
       cores=st.integers(1, 8), hollow=st.booleans(),
       tile=st.sampled_from([16, 64]))
def test_small_workloads_match_reference(name, scale, seed, knob, cores,
                                         hollow, tile):
    """Small seeds and scales: degree-0 rows (CG at ``avg_nnz`` 0–1, GZZI
    at 0 corners, graphs with rows hollowed out), parts left empty by more
    cores than items, and trailing ``compute`` landing in the tail."""
    wl = SMALL[name](scale, seed, knob)
    wl.generate(HostMemory(1 << 22))
    if hollow and name in ("BFS", "PR", "BC"):
        _drop_rows(wl, np.random.default_rng(seed))
    assert_same_traces(wl.baseline_traces(cores),
                       ref.BASELINE[name](wl, cores))
    assert_same_residual(wl, DX100Config(tile_elems=tile), cores)


def test_small_cases_reach_the_edge_cases():
    """The hypothesis space above holds each edge case it claims."""
    cg = SMALL["CG"](8, 0, 1)
    cg.generate(HostMemory(1 << 22))
    assert (np.diff(cg.h) == 0).any()
    traces = cg.baseline_traces(16)
    assert any(len(t) == 0 for t in traces)
    bfs = SMALL["BFS"](16, 1, 1)
    bfs.generate(HostMemory(1 << 22))
    assert any(t.tail_instrs for t in bfs.baseline_traces(8))
    gzzi = SMALL["GZZI"](4, 0, 0)
    gzzi.generate(HostMemory(1 << 22))
    assert (np.diff(gzzi.h)[gzzi.frontier] == 0).any()
    assert all(t.tail_instrs for t in gzzi.baseline_traces(2))
