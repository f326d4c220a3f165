"""Experiment runner: execute a workload under each system configuration.

Two runners cover the paper's three run modes:

* ``run_baseline`` — the legacy multicore code (Table 3 baseline), or,
  with a DMP config, the baseline plus the DMP indirect prefetcher;
* ``run_dx100``    — the offloaded code: the DX100 program interleaved
  with residual core work, synchronized through scratchpad ready bits.
  With ``SystemConfig.dx100_instances > 1`` the schedule's chunk groups
  are dealt over the instances (core multiplexing, Section 6.6), which
  take write ownership of shared arrays through the region protocol.

DX100 runs also *validate*: the host-memory state after the program, and
every gathered tile a workload registered, must match the workload's
NumPy reference.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import replace

import numpy as np

from repro.common.config import SystemConfig
from repro.dx100.api import RegWrite, WaitTiles
from repro.dx100.coherency import RegionCoherence
from repro.dx100.isa import Instr, Opcode
from repro.sim.metrics import RunResult, collect
from repro.sim.system import SimSystem
from repro.workloads.base import CoreWork, Workload

# Spin-wait modelling: one poll loop iteration (load + compare + branch)
# every SPIN_PERIOD cycles while blocked on a ready bit, capped per wait.
SPIN_PERIOD = 20
SPIN_CAP = 500
WAIT_BASE_INSTRS = 2
ISSUE_INSTRS = 3  # three 64-bit memory-mapped stores per instruction


def gc_paused(run):
    """Run ``run`` with the cyclic GC paused (and restored after).

    A run allocates millions of long-lived column entries and short-lived
    records (heap nodes, flights); the collector's generation scans walk
    the million-element column lists again and again, several percent of
    wall time, and the model's object graph is acyclic, so collection is
    deferred to the gaps between runs.  Every entry point that simulates
    (``repro run``, the sweep, direct calls) thus gets the same policy.
    """
    @functools.wraps(run)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return run(*args, **kwargs)
        gc.disable()
        try:
            return run(*args, **kwargs)
        finally:
            gc.enable()
    return paused


@gc_paused
def run_baseline(workload: Workload, config: SystemConfig | None = None,
                 warm: bool = True, obs=None) -> RunResult:
    """Run a workload's legacy multicore code (optionally with DMP).

    ``obs`` is an optional :class:`repro.obs.events.EventBus`; its
    summary lands in ``RunResult.extra`` (never in the golden metric
    fields).
    """
    config = config or SystemConfig.baseline()
    system = SimSystem(config, mem_bytes=workload.mem_bytes, obs=obs)
    workload.generate(system.hostmem)
    if warm and hasattr(workload, "warm_lines"):
        system.warm(workload.warm_lines())
    cores = 1 if workload.single_core_baseline else config.cores
    traces = workload.baseline_traces(cores)
    if system.dmp is not None:
        for pc, (base, scale, index) in workload.dmp_streams().items():
            system.dmp.register_stream(pc, index, base, scale)
    finish = system.multicore.run(traces)
    instructions = (system.multicore.total_instructions()
                    + workload.non_roi_instructions())
    extra = {}
    if system.dmp is not None:
        extra["dmp_prefetches"] = system.dmp.stats.get("dmp_prefetches")
    if obs is not None:
        # Drain in-flight DRAM traffic first (idempotent; collect() drains
        # too) so the digest reflects the run's final event counts.
        system.dram.drain()
        extra.update(obs.summary())
    return collect(system, workload.name, config.name, finish,
                   instructions, extra)


def _split_groups(schedule: list) -> list[list]:
    """Split a schedule into chunk groups, one per chunk: a group ends at
    a CoreWork, or at a WaitTiles that no CoreWork follows.  A chunk's
    core work thus runs on the instance that waited for its tiles, after
    the wait."""
    groups: list[list] = []
    current: list = []
    for item, after in zip(schedule, [*schedule[1:], None]):
        current.append(item)
        if isinstance(item, CoreWork) or (
                isinstance(item, WaitTiles)
                and not isinstance(after, (WaitTiles, CoreWork))):
            groups.append(current)
            current = []
    if current:
        groups.append(current)
    return groups


def _rebase_spd(traces: list, window: tuple[int, int], offset: int) -> list:
    """Copies of ``traces`` whose accesses to ``window`` (instance 0's
    scratchpad, where schedules address tiles) move by ``offset`` into
    the window of the instance that runs them."""
    lo, hi = window
    return [replace(trace, addr=np.where((trace.addr >= lo)
                                         & (trace.addr < hi),
                                         trace.addr + offset, trace.addr))
            for trace in traces]


@gc_paused
def run_dx100(workload: Workload, config: SystemConfig | None = None,
              warm: bool = True, obs=None) -> RunResult:
    """Run the offloaded code: DX100 schedule + residual core work,
    synchronized through scratchpad ready bits, then validate.

    The schedule's chunk groups are dealt over the
    ``config.dx100_instances`` accelerators in contiguous blocks
    (OpenMP-static), each on its own timeline, so write ownership of an
    array moves once, not every chunk.  Each memory write first takes its
    region's write ownership (:class:`RegionCoherence`, free unless
    another instance holds it).  Chunks on different instances finish out
    of program order, legal only for the order-independent (load/RMW)
    kernels the paper multiplexes.  Schedules address scratchpad tiles
    in instance 0's window, so the core work of a group dealt to another
    instance is rebased into that instance's window.  A chunk's core
    traces are built when the run reaches its :class:`CoreWork` and
    dropped once they have run.

    ``obs`` is an optional :class:`repro.obs.events.EventBus`; its summary
    lands in ``RunResult.extra`` (never in the golden metric fields)."""
    config = config or SystemConfig.dx100_system()
    if config.dx100 is None:
        raise ValueError("run_dx100 needs a DX100 configuration")
    system = SimSystem(config, mem_bytes=workload.mem_bytes, obs=obs)
    accels = system.dx100s
    hostmem = system.hostmem
    workload.generate(hostmem)
    if warm and hasattr(workload, "warm_lines"):
        system.warm(workload.warm_lines())
    regions = RegionCoherence()
    for name in hostmem._segments:
        regions.register(hostmem.interval_of(name))
    # PTE transfer for all touched memory (Section 3.6).
    for dx in accels:
        dx.preload_pages(hostmem.base, hostmem.base + hostmem.size)

    groups = _split_groups(workload.dx100_schedule(config.dx100,
                                                   config.cores))
    blocks: list[list] = [[] for _ in accels]
    for g, group in enumerate(groups):
        blocks[g * len(accels) // len(groups)].extend(group)
    times = [0] * len(accels)
    records = []        # every instance's records, in program order
    issue_instrs = 0.0
    for k, (dx, block) in enumerate(zip(accels, blocks)):
        t = 0
        for item in block:
            if isinstance(item, RegWrite):
                dx.write_register(item.reg, item.value)
                t += 1
                issue_instrs += 1
            elif isinstance(item, Instr):
                if item.opcode in (Opcode.IST, Opcode.IRMW, Opcode.SST):
                    t = regions.acquire(item.base, k, write=True, t=t)
                records.append(dx.dispatch(item, t))
                t += ISSUE_INSTRS
                issue_instrs += ISSUE_INSTRS
            elif isinstance(item, WaitTiles):
                resume = dx.wait(item.tiles, t)
                spins = min((resume - t) // SPIN_PERIOD, SPIN_CAP)
                issue_instrs += WAIT_BASE_INSTRS + spins
                t = resume
                for tile in item.tiles:
                    dx.mark_consumed(tile)
            elif isinstance(item, CoreWork):
                traces = item.build()
                if k:
                    traces = _rebase_spd(traces, accels[0].spd.region(),
                                         dx.spd.base - accels[0].spd.base)
                t = system.multicore.run(traces, at=t)
                del traces      # before the next chunk's are built
            else:
                raise TypeError(f"unknown schedule item {item!r}")
        times[k] = t
    # The run ends when both the cores and the accelerators are done.
    t = max(times)
    if records:
        t = max(t, max(r.finish for r in records))
    instructions = (system.multicore.total_instructions() + issue_instrs
                    + workload.non_roi_instructions())
    workload.validate_dx(records, hostmem)
    extra = {
        "dx100_instructions": sum(dx.stats.get("instructions")
                                  for dx in accels),
        "coalescing": _mean_coalescing(records),
    }
    if len(accels) > 1:
        extra["instances"] = len(accels)
        extra["ownership_transfers"] = regions.stats.get(
            "ownership_transfers")
    if obs is not None:
        # Drain first (idempotent) so the digest sees the final counts.
        system.dram.drain()
        extra.update(obs.summary())
    return collect(system, workload.name, config.name, t, instructions,
                   extra)


def _mean_coalescing(records) -> float:
    factors = [r.detail.coalescing for r in records
               if r.detail is not None and hasattr(r.detail, "coalescing")]
    if not factors:
        return 1.0
    return sum(factors) / len(factors)

