"""Co-running workloads on a shared memory system.

The paper motivates DX100 partly through *inter-core interference*:
concurrent request streams from different cores open different rows in the
same banks and destroy each other's locality (Section 1).  This module
runs several workloads simultaneously on disjoint core subsets of one
system, so that interference — shared LLC capacity, row conflicts, shared
request buffers — emerges from the shared component state, and reports
each workload's slowdown against its solo run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import SystemConfig
from repro.dx100.hostmem import HostMemory
from repro.sim.system import SimSystem


class NamespacedMemory:
    """A :class:`HostMemory` view that prefixes segment names, so several
    workloads can allocate their arrays in one shared physical memory."""

    def __init__(self, mem: HostMemory, prefix: str) -> None:
        self._mem = mem
        self._prefix = prefix

    def alloc(self, name, shape, dtype, align: int = 4096) -> int:
        return self._mem.alloc(self._prefix + name, shape, dtype, align)

    def place(self, name, array, align: int = 4096) -> int:
        return self._mem.place(self._prefix + name, array, align)

    def place_input(self, name, array, align: int = 4096):
        return self._mem.place_input(self._prefix + name, array, align)

    def view(self, name):
        return self._mem.view(self._prefix + name)

    def interval_of(self, name):
        return self._mem.interval_of(self._prefix + name)

    def __getattr__(self, attr):
        return getattr(self._mem, attr)


@dataclass
class CorunResult:
    """Per-workload cycles when co-running vs. running solo."""

    names: list[str]
    solo_cycles: list[int]
    corun_cycles: list[int]
    corun_finish: int

    def slowdown(self, i: int) -> float:
        return self.corun_cycles[i] / self.solo_cycles[i]


def run_corun(factories, config: SystemConfig | None = None) -> CorunResult:
    """Run each workload solo, then all of them concurrently on disjoint
    core subsets of a single shared system."""
    config = config or SystemConfig.baseline_scaled()
    if len(factories) < 2:
        raise ValueError("co-running needs at least two workloads")
    if config.cores % len(factories):
        raise ValueError("core count must divide evenly among workloads")
    per = config.cores // len(factories)

    # Solo runs (each on its own fresh system, using `per` cores).
    names, solo = [], []
    for factory in factories:
        system = SimSystem(config)
        wl = factory()
        wl.generate(system.hostmem)
        traces = wl.baseline_traces(per)
        finish = system.multicore.run(traces)
        names.append(wl.name)
        solo.append(finish)

    # Co-run: one system, all workloads at once.
    system = SimSystem(config)
    all_traces = [None] * config.cores
    for k, factory in enumerate(factories):
        wl = factory()
        wl.generate(NamespacedMemory(system.hostmem, f"w{k}:"))
        for j, trace in enumerate(wl.baseline_traces(per)):
            all_traces[k * per + j] = trace
    finish = system.multicore.run(all_traces)
    per_wl = []
    for k in range(len(factories)):
        cores = system.multicore.cores[k * per:(k + 1) * per]
        per_wl.append(max(core._finish for core in cores))
    return CorunResult(names=names, solo_cycles=solo,
                       corun_cycles=per_wl, corun_finish=finish)
