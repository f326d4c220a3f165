"""Multicore execution: time-ordered interleaving of per-core traces.

Cores share the LLC, the DRAM system, and the atomics arbiter; their traces
are advanced in approximate global time order (always stepping the core
whose frontend is furthest behind), which lets contention effects —
row conflicts between cores, shared-LLC capacity, atomic serialization —
emerge from the shared component state.
"""

from __future__ import annotations

import heapq

from repro.common.config import SystemConfig
from repro.common.stats import Stats
from repro.cache.hierarchy import MemoryHierarchy
from repro.core.ooo import AtomicsArbiter, CoreModel
from repro.core.trace import BlockTrace, Trace
from repro.dram.system import DRAMSystem


class Multicore:
    """A pool of :class:`CoreModel` sharing one memory system."""

    #: Core model class; the batched front-end substitutes its fused
    #: subclass here (:class:`repro.core.batched.BatchedMulticore`).
    core_cls = CoreModel

    def __init__(self, config: SystemConfig, hierarchy: MemoryHierarchy,
                 dram: DRAMSystem) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.dram = dram
        self.atomics = AtomicsArbiter(config.core.atomic_fence_cycles)
        self.cores = [
            self.core_cls(i, config.core, hierarchy, dram, self.atomics)
            for i in range(config.cores)
        ]

    def run(self, traces: list[Trace | BlockTrace], at: int = 0) -> int:
        """Run one trace per core concurrently; returns the last finish."""
        if len(traces) > len(self.cores):
            raise ValueError(
                f"{len(traces)} traces for {len(self.cores)} cores"
            )
        active = []
        for i, trace in enumerate(traces):
            self.cores[i].start(trace, at)
            if not self.cores[i].done:
                heapq.heappush(active, (self.cores[i].next_time, i))
        while active:
            _, i = heapq.heappop(active)
            core = self.cores[i]
            core.step()
            if not core.done:
                heapq.heappush(active, (core.next_time, i))
        finish = at
        for i in range(len(traces)):
            finish = max(finish, self.cores[i].drain())
        return finish

    def total_instructions(self) -> float:
        return sum(c.stats.get("instructions") for c in self.cores)

    def merged_stats(self) -> Stats:
        stats = Stats()
        for core in self.cores:
            stats.merge(core.stats)
        return stats
