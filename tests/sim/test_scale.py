"""Multi-instance DX100 runs (Section 6.6 core multiplexing)."""

import pytest

from repro.common import DX100Config, SystemConfig
from repro.dx100 import Scratchpad
from repro.sim import run_dx100, runner
from repro.workloads import QUICK_BENCHMARKS, IntegerSort
from repro.workloads.base import PC_SPD, CoreWork

TWO = SystemConfig.dx100_scaled(8, instances=2, tile_elems=1 << 11)


@pytest.fixture
def seen(monkeypatch):
    """The system of each run, caught where ``run_dx100`` collects it."""
    systems = []
    collect = runner.collect

    def catch(system, *args, **kwargs):
        systems.append(system)
        return collect(system, *args, **kwargs)

    monkeypatch.setattr(runner, "collect", catch)
    return systems


def test_two_instances_validate_and_record_transfers(seen):
    result = run_dx100(IntegerSort(scale=1 << 13, bucket_space=1 << 19),
                       TWO, warm=False)
    assert result.config == "dx100x2"
    assert result.extra["instances"] == 2
    assert len(seen[0].dx100s) == 2
    # Both instances wrote the shared count array: SWMR transfers happened.
    assert result.extra["ownership_transfers"] >= 1
    assert result.cycles > 0


def test_two_instances_count_spins_and_mark_consumed(seen, monkeypatch):
    def run():
        return run_dx100(IntegerSort(scale=1 << 13, bucket_space=1 << 19),
                         TWO, warm=False)

    spinning = run()
    # Cores read every waited-on tile, on whichever instance gathered it.
    assert all(dx.coherency.tracked_lines for dx in seen[0].dx100s)
    monkeypatch.setattr(runner, "SPIN_CAP", 0)
    silent = run()
    assert silent.cycles == spinning.cycles
    assert silent.instructions < spinning.instructions


@pytest.mark.parametrize("check", [0, -1], ids=["first", "last"])
def test_two_instance_cg_checks_every_gathered_tile(seen, check):
    """CG's gathered tiles are its only check; the block rule puts the
    first chunk on instance 0 and the last on instance 1, and a wrong
    expected tile on either fails the run."""
    run_dx100(QUICK_BENCHMARKS["CG"](), TWO, warm=False)
    assert all(dx.records for dx in seen[0].dx100s)

    wl = QUICK_BENCHMARKS["CG"]()
    schedule = wl.dx100_schedule

    def corrupted(config, cores):
        items = schedule(config, cores)
        index, expect = wl._gather_checks[check]
        wl._gather_checks[check] = (index, expect + 1)
        return items

    wl.dx100_schedule = corrupted
    with pytest.raises(AssertionError, match="gathered tile"):
        run_dx100(wl, TWO, warm=False)


def test_core_work_reads_the_scratchpad_of_its_instance(monkeypatch):
    """Schedules address tiles in instance 0's scratchpad window.  The
    core work of each CG group dealt to instance 1 must load from
    instance 1's window, and that of instance 0's groups stays put."""
    loads: list[int] = []
    systems = []
    build = runner.SimSystem

    def observed(*args, **kwargs):
        system = build(*args, **kwargs)
        system.hierarchy.observers.append(
            lambda core, addr, pc, tag, t:
            pc == PC_SPD and loads.append(addr))
        systems.append(system)
        return system

    monkeypatch.setattr(runner, "SimSystem", observed)
    wl = QUICK_BENCHMARKS["CG"]()
    schedule = wl.dx100_schedule
    groups: list[list] = []

    def recorded(config, cores):
        items = schedule(config, cores)
        groups.extend(runner._split_groups(items))
        return items

    wl.dx100_schedule = recorded
    run_dx100(wl, TWO, warm=False)
    bases = [dx.spd.base for dx in systems[0].dx100s]
    pos = 0
    moved = 0
    for g, group in enumerate(groups):
        offset = bases[g * len(bases) // len(groups)] - bases[0]
        want = sorted(addr + offset
                      for item in group if isinstance(item, CoreWork)
                      for trace in item.build()
                      for addr, pc in zip(trace.addr, trace.pc)
                      if pc == PC_SPD)
        assert sorted(loads[pos:pos + len(want)]) == want, g
        pos += len(want)
        moved += len(want) if offset else 0
    assert pos == len(loads)
    assert 0 < moved < len(loads), "chunks must land on both instances"


@pytest.mark.parametrize("name, config", [
    ("CG", TWO), ("GZZ", SystemConfig.dx100_scaled(8, instances=2))],
    ids=["CG", "GZZ"])
def test_core_work_starts_after_its_chunk_wait(monkeypatch, name, config):
    """Chunks are dealt whole: each CoreWork runs on the instance whose
    WaitTiles comes before it in the schedule, and starts no earlier than
    that wait resumes."""
    events: list[tuple[str, int]] = []
    build = runner.SimSystem

    def observed(*args, **kwargs):
        system = build(*args, **kwargs)
        for dx in system.dx100s:
            def wait(tiles, t, _wait=dx.wait):
                resume = _wait(tiles, t)
                events.append(("wait", resume))
                return resume
            dx.wait = wait
        run = system.multicore.run

        def run_at(traces, at=0):
            events.append(("core", at))
            return run(traces, at=at)
        system.multicore.run = run_at
        return system

    monkeypatch.setattr(runner, "SimSystem", observed)
    run_dx100(QUICK_BENCHMARKS[name](), config, warm=False)
    starts = []
    resume = None
    for what, t in events:
        if what == "wait":
            resume = t
        else:
            starts.append((t, resume))
    assert starts and all(at >= resume for at, resume in starts), starts


def test_instance_scratchpads_do_not_overlap():
    cfg = DX100Config(tile_elems=1 << 11)
    base0 = Scratchpad.instance_base(0, cfg)
    base1 = Scratchpad.instance_base(1, cfg)
    span = cfg.num_tiles * cfg.tile_elems * 4
    assert base1 >= base0 + span
