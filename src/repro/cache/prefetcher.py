"""Per-PC stride prefetcher (the L1/L2 prefetchers of Table 3).

Classic reference-prediction-table design: each PC entry remembers the last
address and the last observed stride; two consecutive matching strides make
the entry confident, after which accesses emit prefetch candidates
``degree`` strides ahead.  Streaming accesses (B[i], scratchpad reads) train
it immediately; random indirect accesses never confirm a stride, which is
exactly why the baseline gains nothing on them (Section 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.stats import Stats


@dataclass(slots=True)
class _StrideEntry:
    """One PC's row (slotted: the batched walk builds one per new PC)."""

    last_addr: int
    stride: int = 0
    confidence: int = 0


class StridePrefetcher:
    """Reference prediction table keyed by PC."""

    def __init__(self, degree: int = 2, table_size: int = 64,
                 line_bytes: int = 64, stats: Stats | None = None) -> None:
        self.degree = degree
        self.table_size = table_size
        self.line_bytes = line_bytes
        self.stats = stats if stats is not None else Stats()
        self._table: dict[int, _StrideEntry] = {}

    def observe(self, pc: int, addr: int) -> list[int]:
        """Record a demand access; returns line addresses to prefetch."""
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.table_size:
                self._table.pop(next(iter(self._table)))   # oldest PC
            self._table[pc] = _StrideEntry(last_addr=addr)
            return []
        stride = addr - entry.last_addr
        if stride == entry.stride and stride != 0:
            entry.confidence = min(entry.confidence + 1, 3)
        else:
            entry.stride = stride
            entry.confidence = 0
        entry.last_addr = addr
        if entry.confidence < 2:
            return []
        self.stats.add("prefetch_trains")
        out: list[int] = []
        for k in range(1, self.degree + 1):
            line = (addr + k * stride) & ~(self.line_bytes - 1)
            if line >= 0 and (not out or line != out[-1]):
                out.append(line)
        self.stats.add("prefetches_issued", float(len(out)))
        return out
