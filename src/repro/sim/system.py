"""Assembles a full simulated system from a :class:`SystemConfig`."""

from __future__ import annotations

from repro.common.config import SystemConfig
from repro.cache.batched import BatchedHierarchy
from repro.cache.hierarchy import MemoryHierarchy
from repro.core.batched import BatchedMulticore
from repro.core.multicore import Multicore
from repro.dram.system import DRAMSystem
from repro.dx100.accelerator import DX100
from repro.dx100.hostmem import HostMemory
from repro.prefetch.dmp import DMPEngine


class SimSystem:
    """DRAM + caches + cores (+ DX100 / + DMP) behind one object."""

    def __init__(self, config: SystemConfig,
                 mem_bytes: int = 1 << 26,
                 obs=None) -> None:
        batched = config.frontend == "batched"
        self.config = config
        self.dram = DRAMSystem(config.dram)
        self.hierarchy = (BatchedHierarchy if batched
                          else MemoryHierarchy)(config, self.dram)
        self.hostmem = HostMemory(mem_bytes)
        self.multicore = (BatchedMulticore if batched
                          else Multicore)(config, self.hierarchy, self.dram)
        # ``config.dx100_instances`` accelerators share the memory system;
        # instance 0 is ``dx100``, the one every single-instance run uses.
        instances = config.dx100_instances if config.dx100 is not None else 0
        self.dx100s = [DX100(config, self.hierarchy, self.dram, self.hostmem,
                             instance=i) for i in range(instances)]
        self.dx100 = self.dx100s[0] if self.dx100s else None
        self.dmp = None
        if config.dmp:
            self.dmp = DMPEngine(self.hierarchy)
            # The observer protocol is exactly ``observe``'s signature, so
            # register the bound method itself (one call per demand access).
            self.hierarchy.observers.append(self.dmp.observe)
            # ``observe`` returns without side effects unless the PC has a
            # registered stream and the op carries a loop tag; publish that
            # early-out so the batched walk can skip the call.
            if isinstance(self.hierarchy, BatchedHierarchy):
                self.hierarchy.observer_pc_filter = self.dmp.stream_pcs
        # Observability: an :class:`repro.obs.events.EventBus` (or None).
        # Attached last so the bus sees the fully-built component graph.
        self.obs = obs
        if obs is not None:
            obs.attach(self)

    def warm(self, lines) -> None:
        """Pre-load lines into every cache level (the all-hit scenario)."""
        for addr in lines:
            line = self.hierarchy.llc.line_addr(addr)
            self.hierarchy.llc.insert(line)
            for core in range(self.config.cores):
                self.hierarchy.l2[core].insert(line)
                self.hierarchy.l1[core].insert(line)
