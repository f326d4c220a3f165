"""Differential tests: the batched front-end vs the scalar oracle.

The batched front-end (:class:`~repro.cache.batched.BatchedHierarchy` +
:class:`~repro.core.batched.BatchedMulticore`) is a call-graph fusion of
the scalar per-op models — same data structures, same schedule, fewer
Python frames.  *Bitwise equivalence is the contract*: for any trace, the
two front-ends must agree on

* the finish cycle and per-op timing (``issue``, ``complete``, ``level``,
  read from each core's result columns);
* every cache/MSHR/prefetcher counter in the hierarchy's stats;
* the DRAM command stream (kind, cycle, bank, row, in order) on every
  channel, under *both* DRAM engines;
* the merged DRAM counters and the instruction totals.

The batched cores record their per-op result columns (``record_ops``),
and the module cuts their traces into slices of ``SLICE_OPS`` ops, fewer
than the tiny core's window, so every run crosses many slice boundaries.

Three layers: hypothesis property tests drive randomized multi-core trace
programs (loads/stores/RMWs, dependence chains, atomics, PC/tag streams)
through paired systems, on the default core and on a tiny one whose
ROB, IQ, LQ and SQ fill after a few ops; seeded long runs cross prefetcher and MSHR
pressure with the DMP engine attached; and end-to-end pairs replay quick
benchmarks — including DX100 mode, whose tile path exercises
``llc_access``/``access_lines`` — through the sweep's own ``execute_task``.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import SystemConfig
from repro.common.types import AccessType
from repro.core.trace import Trace, TraceBuilder
from repro.sim.system import SimSystem

CORES = 2
LINE = 64
SLICE_OPS = 5


@pytest.fixture(autouse=True, scope="module")
def _small_slices():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.core.trace.SLICE", SLICE_OPS)
        yield


# ------------------------------------------------------------- harness

def _make_config(mode: str, dram_engine: str) -> SystemConfig:
    if mode == "baseline":
        cfg = SystemConfig.baseline(CORES)
    elif mode == "dmp":
        cfg = SystemConfig.dmp_system(CORES)
    elif mode == "dx100":
        cfg = SystemConfig.dx100_system(CORES)
    else:  # pragma: no cover
        raise ValueError(mode)
    return replace(cfg, dram=replace(cfg.dram, engine=dram_engine))


def _system(config: SystemConfig, frontend: str):
    """A SimSystem with per-channel DRAM command recorders attached."""
    system = SimSystem(replace(config, frontend=frontend))
    for core in system.multicore.cores:
        core.record_ops = True
    logs: list[list[tuple]] = []
    for ctrl in system.dram.controllers:
        log: list[tuple] = []
        ctrl.command_observers.append(
            lambda kind, cycle, bank, row, _l=log:
            _l.append((kind, cycle, bank, row)))
        logs.append(log)
    return system, logs


def _build_traces(program) -> list[Trace]:
    """Materialize the per-core op program.  A trace holds no run's
    timing, so both front-ends replay the same trace objects."""
    builders = [TraceBuilder() for _ in range(CORES)]
    for core, kind, line_no, dep_back, extra, atomic, pc, tag in program:
        tb = builders[core % CORES]
        addr = (line_no * LINE) % (1 << 22)
        n = len(tb)
        deps = (n - 1 - (dep_back % n),) if (dep_back >= 0 and n) else ()
        if extra:
            tb.compute(extra)
        if kind == 0:
            tb.load(addr, deps=deps, pc=pc, tag=tag)
        elif kind == 1:
            tb.store(addr, deps=deps, atomic=atomic, pc=pc, tag=tag)
        else:
            tb.rmw(addr, deps=deps, atomic=atomic, pc=pc, tag=tag)
    return [tb.finish() for tb in builders]


def _assert_equivalent(config: SystemConfig, program,
                       dmp_stream=None) -> dict[str, dict]:
    """Replay ``program`` on both front ends, assert they agree, and
    return each front end's hierarchy counters."""
    finishes, op_timings, cache_counters = {}, {}, {}
    dram_logs, dram_counters, instrs = {}, {}, {}
    traces = _build_traces(program)
    for frontend in ("scalar", "batched"):
        system, logs = _system(config, frontend)
        if dmp_stream is not None and system.dmp is not None:
            pc, addrs = dmp_stream
            system.dmp.register_stream(pc, addrs)
        finish = system.multicore.run(traces)
        system.dram.drain()
        finishes[frontend] = finish
        op_timings[frontend] = [
            list(zip(core.op_issue, core.op_complete, core.op_level))
            for core in system.multicore.cores]
        cache_counters[frontend] = dict(system.hierarchy.stats.counters)
        dram_logs[frontend] = logs
        dram_counters[frontend] = dict(system.dram.merged_stats().counters)
        instrs[frontend] = system.multicore.total_instructions()
    assert finishes["batched"] == finishes["scalar"]
    assert op_timings["batched"] == op_timings["scalar"]
    assert cache_counters["batched"] == cache_counters["scalar"]
    assert dram_logs["batched"] == dram_logs["scalar"]
    assert dram_counters["batched"] == dram_counters["scalar"]
    assert instrs["batched"] == instrs["scalar"]
    return cache_counters


# ------------------------------------------------- property: random traces

# (core, kind, line_no, dep_back, extra, atomic, pc, tag): a footprint a
# few times the L1/L2 capacity, short dependence chains, occasional
# atomics, and small PC/tag alphabets so prefetchers and the DMP see
# recurring streams.
_op = st.tuples(
    st.integers(0, CORES - 1),            # core
    st.integers(0, 2),                    # load / store / rmw
    st.integers(0, 1 << 9),               # line number
    st.integers(-1, 4),                   # dep: -1 = none, else back-offset
    st.integers(0, 5),                    # extra non-memory instructions
    st.booleans(),                        # atomic?
    st.integers(0, 3),                    # pc
    st.integers(-1, 7),                   # tag
)
_program = st.lists(_op, min_size=1, max_size=60)


@pytest.mark.parametrize("mode,engine", [
    ("baseline", "batched"),
    ("baseline", "scalar"),
    ("dmp", "batched"),
    ("dx100", "batched"),
])
@settings(max_examples=25, deadline=None)
@given(program=_program)
def test_batched_frontend_matches_scalar_randomized(mode, engine, program):
    _assert_equivalent(_make_config(mode, engine), program)


# ------------------------------------------------------ seeded long runs

def _long_program(seed: int, n: int):
    import random
    rng = random.Random(seed)
    prog = []
    for i in range(n):
        kind = rng.choice((0, 0, 0, 1, 2))
        # Mix a strided walk (prefetcher-friendly) with random lines
        # (MSHR/LLC pressure) on alternating PCs.
        line_no = i * 2 if i % 3 else rng.randrange(1 << 12)
        prog.append((rng.randrange(CORES), kind, line_no,
                     rng.randrange(-1, 3), rng.randrange(4),
                     rng.random() < 0.1, i % 3, i % 5))
    return prog


@pytest.mark.parametrize("mode", ["baseline", "dmp", "dx100"])
def test_long_run_agrees(mode):
    _assert_equivalent(_make_config(mode, "batched"),
                       _long_program(seed=hash(mode) % 1000, n=500))


def test_dmp_with_registered_stream_agrees():
    """The DMP observer path live: a registered indirect stream on pc=1
    makes ``observe`` issue LLC prefetches from inside the demand walk —
    the batched walk's observer short-circuit must not skip them."""
    stream = [(i * 17 % (1 << 10)) * LINE for i in range(64)]
    program = [(i % CORES, 0, (i * 17) % (1 << 10), -1, 1, False, 1, i)
               for i in range(200)]
    _assert_equivalent(_make_config("dmp", "batched"), program,
                       dmp_stream=(1, stream))


def _tiny_mshrs(config: SystemConfig) -> SystemConfig:
    """Two MSHRs per cache level, so a miss burst fills every file."""
    return replace(config, l1=replace(config.l1, mshrs=2),
                   l2=replace(config.l2, mshrs=2),
                   llc=replace(config.llc, mshrs=2))


def _miss_burst(n: int = 64):
    """Independent loads to distinct lines in distinct sets, no compute
    between them: every access misses with its MSHR files already full
    of unresolved fills."""
    return [(i % CORES, 0, i * 7 + 1, -1, 0, False, 0, -1)
            for i in range(n)]


# ----------------------------------------------- tiny core: every stall path

def _tiny_core(config: SystemConfig) -> SystemConfig:
    """ROB 8, IQ 4, LQ 2, SQ 2: a few ops fill every structure, where the
    default core (ROB 224, LQ 72, SQ 56) almost never stalls on one."""
    return replace(config, core=replace(config.core, rob_size=8, iq_size=4,
                                        lq_size=2, sq_size=2))


@pytest.mark.parametrize("mode,engine", [
    ("baseline", "batched"),
    ("dmp", "scalar"),
])
@settings(max_examples=25, deadline=None)
@given(program=_program)
def test_tiny_core_matches_scalar_randomized(mode, engine, program):
    _assert_equivalent(_tiny_core(_make_config(mode, engine)), program)


_STALLS = ("rob_stalls", "iq_stalls", "lq_stalls", "sq_stalls")


def _tiny_core_program(n: int = 400):
    """Mostly misses to random lines (no stride for the prefetchers to
    learn), loads and stores mixed (LQ and SQ pressure), some ops with a
    few instructions (IQ pressure), every other op of a core depending on
    the core's previous op, and every fifth op instead on the op ten
    back, which the 8-op window has already retired."""
    import random
    rng = random.Random(7)
    return [(i % CORES, rng.choice((0, 0, 1, 2)), rng.randrange(1 << 14),
             9 if i % 5 == 0 else (0 if i % 2 else -1),
             rng.choice((0, 0, 1, 3)), i % 17 == 0, i % 3, -1)
            for i in range(n)]


def _record_dependences(system, traces) -> dict[str, int]:
    """Wrap ``system.hierarchy.access`` (both front ends call it once per
    op, after the op's stalls and its dependence check) to classify each
    dependence edge ``d -> i`` of a core's trace:

    * ``unresolved`` -- ``d`` was pending when op ``i``'s segment began
      (it missed at issue, and the core had not resolved it by op
      ``i - 1``'s access) and op ``i`` stalled on nothing, so no retire
      or IQ wait resolved it before the dependence check did;
    * ``retired`` -- ``d`` missed at issue and is more than ``rob_size``
      ops back, so the window no longer holds it.

    Returns the live tally, filled in as the run goes."""
    cores = system.multicore.cores
    rob_size = system.config.core.rob_size
    tally = {"unresolved": 0, "retired": 0}
    # Per core: (stall counts, op_complete copy, missed at issue) of the
    # previous op's access.
    previous: list = [None] * len(cores)
    issued = [0] * len(cores)
    missed: list[list[bool]] = [[] for _ in cores]
    access = system.hierarchy.access

    def spy(core_id, *args, **kwargs):
        core = cores[core_id]
        i = issued[core_id]
        issued[core_id] += 1
        counters = core.stats.counters
        stalls = tuple(counters.get(key, 0) for key in _STALLS)
        complete = list(core.op_complete)
        prev = previous[core_id]
        op = traces[core_id].op(i)
        for d in op.deps:
            if i - d > rob_size and missed[core_id][d]:
                tally["retired"] += 1
            elif prev is not None and prev[0] == stalls:
                if d == i - 1:
                    pending = prev[2]
                else:
                    pending = prev[1][d] < 0
                if pending:
                    tally["unresolved"] += 1
        result = access(core_id, *args, **kwargs)
        level_complete = (result.complete if hasattr(result, "complete")
                          else result[2])
        missed[core_id].append(level_complete < 0)
        previous[core_id] = (stalls, complete,
                             level_complete < 0 and not op.atomic)
        return result

    system.hierarchy.access = spy
    return tally


@pytest.mark.parametrize("engine", ["batched", "scalar"])
def test_tiny_core_exercises_every_stall_path(engine):
    """On both front ends the tiny core takes every forced retire (ROB,
    LQ, SQ), the IQ stall, a dependence on a still-pending producer and a
    dependence on a retired one; the per-op result columns, counters and
    DRAM streams agree."""
    config = _tiny_core(_make_config("baseline", engine))
    program = _tiny_core_program()
    _assert_equivalent(config, program)
    traces = _build_traces(program)
    for frontend in ("scalar", "batched"):
        system, _ = _system(config, frontend)
        tally = _record_dependences(system, traces)
        system.multicore.run(traces)
        stats = system.multicore.merged_stats()
        for key in _STALLS:
            assert stats.get(key) > 0, (frontend, key)
        assert tally["unresolved"] > 0, frontend
        assert tally["retired"] > 0, frontend


def _check_retired_producers(system, traces) -> list[int]:
    """Wrap the scalar cores' hierarchy access (made once per op, after
    its stalls) and assert, for every dependence of op ``i`` on a producer
    that has already retired, that the producer's completion is at most
    ``int(dispatch)`` of op ``i``: the spec's ``_fetch_time`` at that
    moment.  Returns the live count of such edges."""
    cores = system.multicore.cores
    seen = [0]
    access = system.hierarchy.access

    def spy(core_id, *args, **kwargs):
        core = cores[core_id]
        i = core._next - 1
        oldest = core._window[0].index if core._window else i
        for d in traces[core_id].op(i).deps:
            if d < oldest:
                seen[0] += 1
                assert core.op_complete[d] <= int(core._fetch_time), (i, d)
        return access(core_id, *args, **kwargs)

    system.hierarchy.access = spy
    return seen


@settings(max_examples=25, deadline=None)
@given(program=_program)
def test_retired_producer_never_delays_a_consumer(program):
    """The batched core drops a slice's dependences on ops before its
    first op, and keeps completions only for its window.  That is exact
    because a producer retires before the trace ends only at a structural
    stall, whose forced retire raises ``fetch_time`` to the producer's
    completion, so every later op dispatches no earlier.  Checked on the
    spec, over random programs on the tiny core, where retired producers
    are common."""
    config = _tiny_core(_make_config("baseline", "batched"))
    traces = _build_traces(program)
    system, _ = _system(config, "scalar")
    _check_retired_producers(system, traces)
    system.multicore.run(traces)


def test_retired_producers_are_reached():
    """The property above is not vacuous: the tiny-core program depends
    on ops its window has retired dozens of times."""
    config = _tiny_core(_make_config("baseline", "batched"))
    traces = _build_traces(_tiny_core_program())
    system, _ = _system(config, "scalar")
    seen = _check_retired_producers(system, traces)
    system.multicore.run(traces)
    assert seen[0] > 50


def test_both_dram_engines_same_frontend_answer():
    """Front-end equivalence must hold on the scalar DRAM oracle too (the
    2x2 grid closes: any front-end x any engine gives the same system)."""
    program = _long_program(seed=42, n=300)
    for engine in ("batched", "scalar"):
        _assert_equivalent(_make_config("baseline", engine), program)


@pytest.mark.parametrize("engine", ["batched", "scalar"])
def test_mshr_full_wait_agrees(engine):
    """A miss burst against two-entry MSHR files drives both front ends'
    ``_stall_for_mshr`` into its wait branch (``oldest()`` plus a forced
    DRAM completion), which the default geometry never reaches.  Each
    wait bumps one ``*_mshr_stalls`` counter, so a non-zero count on both
    sides means both front ends took it."""
    counters = _assert_equivalent(_tiny_mshrs(_make_config("baseline",
                                                           engine)),
                                  _miss_burst())
    for frontend in ("scalar", "batched"):
        assert sum(counters[frontend].get(f"{level}_mshr_stalls", 0)
                   for level in ("l1", "l2", "llc")) > 0, frontend


# ---------------------------------------------- end-to-end benchmark pairs

@pytest.mark.parametrize("bench,mode", [
    ("IS", "baseline"),
    ("IS", "dx100"),
    ("CG", "dmp"),
    ("XRAGE", "dx100"),
])
def test_quick_benchmark_end_to_end_pair(bench, mode):
    """Full RunResult equality through the sweep's own task executor —
    every golden metric field plus the extra fields, both front-ends.
    The dx100 rows drive the tile path (``llc_access``/``access_lines``)
    and the scratchpad windows end to end."""
    from repro.sim.sweep import CONFIG_BUILDERS, SweepTask, execute_task

    results = {}
    for frontend in ("batched", "scalar"):
        config = replace(CONFIG_BUILDERS[mode](4), frontend=frontend)
        task = SweepTask(benchmark=bench, mode=mode, scale="quick",
                         config=config)
        result, _wall = execute_task(task)
        results[frontend] = result
    assert results["batched"].__dict__ == results["scalar"].__dict__


def test_unknown_frontend_rejected():
    with pytest.raises(ValueError):
        SimSystem(replace(SystemConfig.baseline(2), frontend="vectorized"))
