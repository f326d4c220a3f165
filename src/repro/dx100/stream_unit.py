"""The Stream Access unit (Section 3.3, Figure 3 c/d).

Streaming loads (SLD) and stores (SST) move tiles between sequential memory
addresses and the scratchpad.  Streaming accesses have high locality, so
they are routed through the LLC via the Cache Interface; the Request Table
(an MSHR analogue) paces outstanding line fills.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.config import DX100Config
from repro.common.stats import Stats
from repro.common.types import DType
from repro.cache.hierarchy import MemoryHierarchy
from repro.dram.system import DRAMSystem
from repro.dx100.hostmem import HostMemory
from repro.dx100.tlb import TLB


@dataclass
class StreamResult:
    """Timing outcome of one streaming instruction."""

    values: np.ndarray | None
    finish: int
    first_avail: int      # when the first elements reach the scratchpad
    lines: int
    elements: int
    busy_until: int = 0   # when the unit's issue port frees (pipelining)

    @property
    def stream_rate(self) -> float:
        """Elements per cycle between first_avail and finish."""
        span = max(1, self.finish - self.first_avail)
        return self.elements / span


class StreamUnit:
    """SLD/SST execution over the Cache Interface."""

    def __init__(self, config: DX100Config, hierarchy: MemoryHierarchy,
                 dram: DRAMSystem, hostmem: HostMemory, tlb: TLB,
                 stats: Stats | None = None) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.dram = dram
        self.hostmem = hostmem
        self.tlb = tlb
        self.stats = stats if stats is not None else Stats()
        self.line_bytes = hierarchy.line

    # --------------------------------------------------------------- common

    def _issue_lines(self, lines: np.ndarray, is_write: bool, t_start: int,
                     avail: tuple[int, float] | None = None,
                     elems_per_line: float = 1.0) -> tuple[int, int]:
        """Issue one request per unique line through the LLC; returns
        (first_completion, last_completion).

        ``avail`` is (t0, rate): line ``j``'s source elements become
        available at ``t0 + j*elems_per_line/rate`` — the finish-bit overlap
        with a producing instruction.
        """
        results = []
        t = t_start
        window = self.config.request_table
        rate = self.config.stream_issue_rate
        for j, line in enumerate(lines.tolist()):
            if j >= window:
                # Request-table back-pressure: wait for an older fill.
                t = max(t, results[j - window].resolve(self.dram) - window)
            arrival = max(t, t_start + j // rate)
            if avail is not None:
                arrival = max(arrival,
                              int(avail[0] + j * elems_per_line / avail[1]))
            results.append(self.hierarchy.llc_access(
                line, is_write, arrival))
            t += 1
        completions = [r.resolve(self.dram) for r in results]
        if not completions:
            return t_start, t_start
        return min(completions), max(completions)

    # ----------------------------------------------------------------- load

    def load(self, base: int, dtype: DType, lo: int, hi: int, step: int,
             cond: np.ndarray | None, t_start: int) -> StreamResult:
        """SLD: gather ``base[lo:hi:step]`` into a tile.

        Positional semantics: tile element ``i`` holds the value of loop
        iteration ``i``; condition-skipped iterations leave zeros.
        """
        if step == 0:
            raise ValueError("stream stride must be non-zero")
        idx = np.arange(lo, hi, step, dtype=np.int64)
        mask = np.ones(len(idx), dtype=bool)
        if cond is not None:
            if len(cond) < len(idx):
                raise ValueError("condition tile shorter than the loop")
            mask = np.asarray(cond[:len(idx)]) != 0
        addrs = base + idx[mask] * dtype.nbytes
        t_start += self.tlb.translate_tile(addrs) if addrs.size else 0
        lines = np.unique(addrs & ~np.int64(self.line_bytes - 1))
        first, last = self._issue_lines(lines, False, t_start)
        values = np.zeros(len(idx), dtype=dtype.numpy_name)
        if addrs.size:
            values[mask] = self.hostmem.read_words(addrs, dtype)
        self.stats.add("sld_elements", len(addrs))
        self.stats.add("sld_lines", len(lines))
        return StreamResult(values=values, finish=last,
                            first_avail=first, lines=len(lines),
                            elements=len(addrs),
                            busy_until=t_start + len(lines)
                            // self.config.stream_issue_rate)

    # ---------------------------------------------------------------- store

    def store(self, base: int, dtype: DType, lo: int, hi: int, step: int,
              values: np.ndarray, cond: np.ndarray | None, t_start: int,
              avail: tuple[int, float] | None = None,
              min_finish: int = 0) -> StreamResult:
        """SST: scatter a tile to ``base[lo:hi:step]``.

        ``avail``/``min_finish`` let the store stream behind a producing
        instruction (finish-bit overlap) without outrunning its data.
        """
        if step == 0:
            raise ValueError("stream stride must be non-zero")
        idx = np.arange(lo, hi, step, dtype=np.int64)
        vals = np.asarray(values)[:len(idx)]
        if len(vals) < len(idx):
            raise ValueError("tile shorter than the store loop")
        if cond is not None:
            keep = np.asarray(cond[:len(idx)]) != 0
            idx, vals = idx[keep], vals[keep]
        addrs = base + idx * dtype.nbytes
        t_start += self.tlb.translate_tile(addrs) if addrs.size else 0
        lines = np.unique(addrs & ~np.int64(self.line_bytes - 1))
        epl = len(addrs) / max(1, len(lines))
        first, last = self._issue_lines(lines, True, t_start, avail, epl)
        last = max(last, min_finish)
        if addrs.size:
            self.hostmem.write_words(addrs, vals, dtype)
        self.stats.add("sst_elements", len(addrs))
        self.stats.add("sst_lines", len(lines))
        return StreamResult(values=None, finish=last, first_avail=first,
                            lines=len(lines), elements=len(addrs),
                            busy_until=t_start + len(lines)
                            // self.config.stream_issue_rate)
