"""Spatter benchmark: the xRAGE scatter pattern.

Spatter replays gather/scatter index traces collected from production
applications; the paper uses a pattern from the xRAGE multi-physics code
(``ST A[B[i]]``, Table 1).  xRAGE's AMR data produces indices with *block*
structure — short contiguous runs at effectively random block starts — which
we synthesize here: runs of ``block`` consecutive elements whose starting
positions are uniform over a large target region.
"""

from __future__ import annotations

import numpy as np

from repro.common.config import DX100Config
from repro.common.types import DType
from repro.core.trace import BulkEmitter, Trace
from repro.dx100.api import ProgramBuilder
from repro.dx100.hostmem import HostMemory
from repro.workloads.base import (
    BASE_ADDR_CALC, PC_INDEX, PC_INDIRECT, PC_VALUE, DMPStream, Reference,
    Workload, chunk_bounds, last_writer,
)


class SpatterXRAGE(Workload):
    """xRAGE scatter: ``A[B[i]] = C[i]`` with block-structured indices."""

    name = "XRAGE"
    suite = "Spatter"
    pattern = "ST A[B[i]], i = F to G"

    def __init__(self, scale: int = 1 << 16, seed: int = 0,
                 block: int = 16, region: int = 1 << 20) -> None:
        super().__init__(scale, seed)
        self.block = block
        self.region = region

    def generate(self, mem: HostMemory) -> None:
        self._remember(mem)
        n_blocks = -(-self.scale // self.block)
        starts = self.rng.integers(0, self.region - self.block,
                                   n_blocks, dtype=np.int64)
        indices = (starts[:, None] + np.arange(self.block)).ravel()
        values = self.rng.integers(0, 1 << 20, self.scale, dtype=np.int64)
        self.b_base, self.indices = mem.place_input(
            "B", indices[:self.scale])
        self.c_base, self.values = mem.place_input("C", values)
        self.a_base = mem.alloc("A", self.region, DType.I64)  # all zero

    def core_trace(self, part) -> Trace:
        # Per element: index B[i], value C[i], then the scatter store.
        i = np.arange(part.start, part.stop)
        at = 3 * np.arange(len(i))
        em = BulkEmitter(3 * len(i))
        em.load(at, self.b_base + 8 * i, pc=PC_INDEX, extra=2, tag=i)
        em.load(at + 1, self.c_base + 8 * i, pc=PC_VALUE, extra=1)
        em.store(at + 2, self.a_base + 8 * self.indices[i],
                 deps=(at, at + 1), pc=PC_INDIRECT, extra=BASE_ADDR_CALC,
                 tag=i)
        return em.finish()

    def dx100_schedule(self, config: DX100Config, cores: int) -> list:
        items: list = []
        for lo, hi in chunk_bounds(self.scale, config.tile_elems):
            pb = ProgramBuilder(config)
            t_b = pb.sld(DType.I64, self.b_base, lo, hi)
            t_c = pb.sld(DType.I64, self.c_base, lo, hi)
            pb.ist(DType.I64, self.a_base, t_b, t_c)
            pb.wait(t_b, t_c)
            items += pb.build()
        return items

    def expected(self) -> dict[str, Reference]:
        return {"A": last_writer(self.indices, self.values)}

    def dmp_streams(self) -> dict[int, DMPStream]:
        return {PC_INDIRECT: (self.a_base, 8, self.indices)}
