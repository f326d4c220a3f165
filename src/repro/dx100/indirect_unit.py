"""The Indirect Access unit (Section 3.2): fill / request / response.

The unit executes ILD / IST / IRMW over a tile of indices:

1. **Fill** — decode each index to DRAM coordinates and insert into the
   Row/Word tables (coalescing duplicate lines).  When a slice runs out of
   BCAM entries the table drains mid-fill.
2. **Request** — drained lines issue in the Row Table's interleaved,
   row-grouped order.  Lines whose H bit is set (cached somewhere, learned
   by snooping at first touch) go through the Cache Interface; the rest
   bypass the LLC straight into the memory controllers — the path that
   escapes core-side MSHR limits.
3. **Response** — the Word Table linked list recovers which tile elements
   each returning line serves; the Word Modifier extracts words (ILD),
   inserts words (IST), or applies the arithmetic op (IRMW), writing
   modified lines back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.config import DX100Config
from repro.common.stats import Stats
from repro.common.types import AluOp, DType, HitLevel
from repro.cache.hierarchy import AccessResult, MemoryHierarchy
from repro.dram.system import DRAMSystem
from repro.dx100.alu import RMW_UFUNCS
from repro.dx100.hostmem import HostMemory
from repro.dx100.row_table import PendingLine, RowTable
from repro.dx100.tlb import TLB
from repro.dx100.word_table import WordTable

RESPONSE_LATENCY = 16  # word-modifier pipeline depth, cycles


@dataclass
class IndirectResult:
    """Outcome of one indirect instruction over a tile."""

    values: np.ndarray | None     # gathered words (ILD only)
    finish: int
    elements: int
    unique_lines: int
    drains: int
    start: int = 0
    busy_until: int = 0   # fill-stage end: when the unit can accept more

    @property
    def coalescing(self) -> float:
        return self.elements / self.unique_lines if self.unique_lines else 1.0

    @property
    def stream_rate(self) -> float:
        """Approximate elements-per-cycle delivery rate (for consumers that
        overlap with this instruction through the finish bits)."""
        return self.elements / max(1, self.finish - self.start)


def select_elements(kind: str, base: int, dtype: DType,
                    indices: np.ndarray, cond: np.ndarray | None,
                    op: AluOp | None) -> tuple[int, np.ndarray, np.ndarray]:
    """Check one indirect instruction's arguments and select its active
    elements.

    Returns ``(n_tile, iters, addrs)``: the index tile's length, the tile
    positions whose condition is set (all of them without ``cond``), and
    those elements' word addresses.
    """
    if kind not in ("ld", "st", "rmw"):
        raise ValueError(f"unknown indirect kind {kind!r}")
    if kind == "rmw" and (op is None or not op.is_commutative_associative):
        raise ValueError("IRMW needs a commutative+associative op")
    indices = np.asarray(indices, dtype=np.int64)
    n_tile = len(indices)
    iters = np.arange(n_tile, dtype=np.int64)
    if cond is not None:
        if len(cond) < n_tile:
            raise ValueError("condition tile shorter than index tile")
        keep = np.asarray(cond[:n_tile]) != 0
        iters = iters[keep]
        indices = indices[keep]
    return n_tile, iters, base + indices * dtype.nbytes


def apply_words(hostmem: HostMemory, kind: str, dtype: DType,
                op: AluOp | None, n_tile: int, iters: np.ndarray,
                addrs: np.ndarray, src_values: np.ndarray | None
                ) -> np.ndarray | None:
    """The Word Modifier's effect on memory: gather the selected words
    (ILD; returns the tile, zero where the condition is clear), insert
    the matching source words (IST), or apply ``op`` to them (IRMW)."""
    if kind == "ld":
        values = np.zeros(n_tile, dtype=dtype.numpy_name)
        if addrs.size:
            values[iters] = hostmem.read_words(addrs, dtype)
        return values
    if addrs.size:
        src = np.asarray(src_values)[iters]
        if kind == "st":
            hostmem.write_words(addrs, src, dtype)
        else:
            hostmem.rmw_words(addrs, src, dtype, RMW_UFUNCS[op])
    return None


def count_instruction(stats: Stats, kind: str, elements: int, lines: int,
                      drains: int) -> None:
    """Add one indirect instruction's element, line and drain counts."""
    stats.add(f"i{kind}_elements", elements)
    stats.add(f"i{kind}_lines", lines)
    stats.add("indirect_drains", drains)


class IndirectUnit:
    """ILD/IST/IRMW execution through Row Table + Word Table."""

    def __init__(self, config: DX100Config, hierarchy: MemoryHierarchy,
                 dram: DRAMSystem, hostmem: HostMemory, tlb: TLB,
                 stats: Stats | None = None) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.dram = dram
        self.hostmem = hostmem
        self.tlb = tlb
        self.stats = stats if stats is not None else Stats()
        # Observability bus; None (a couple of branches per *tile*, never
        # per element) unless an EventBus is attached.
        self.obs = None
        self.mapper = dram.mapper
        self.line_bytes = hierarchy.line

    # ----------------------------------------------------------------- fill

    def execute(self, kind: str, base: int, dtype: DType,
                indices: np.ndarray, cond: np.ndarray | None,
                src_values: np.ndarray | None, t_start: int,
                op: AluOp | None = None,
                index_avail: tuple[int, float] | None = None,
                tile: int = -1) -> IndirectResult:
        """Run one indirect instruction.

        ``index_avail`` is (t0, rate): element ``e`` of the index tile
        becomes available at ``t0 + e / rate`` — the fine-grained overlap
        with a producing SLD that the scratchpad finish bits enable.
        ``kind`` is "ld", "st", or "rmw".  ``tile`` is a label for the
        observability layer's tile lifecycle spans (the destination tile
        for ILD, the index tile for IST/IRMW; -1 = unlabelled).
        """
        n_tile, iters, addrs = select_elements(kind, base, dtype, indices,
                                               cond, op)
        t = t_start + (self.tlb.translate_tile(addrs) if addrs.size else 0)

        row_table = RowTable(self.config.row_table_rows,
                             self.config.row_table_cols)
        word_table = WordTable(max(n_tile, 1))
        drains = 0
        pending_reqs: list[tuple[PendingLine, AccessResult]] = []

        fill_rate = self.config.fill_rate
        avail_t0, avail_rate = index_avail if index_avail else (t, float("inf"))
        fill_cursor = float(t)

        for e, (it, addr) in enumerate(zip(iters.tolist(), addrs.tolist())):
            coord = self.mapper.map(addr)
            line = self.mapper.line_addr(addr)
            fill_cursor = max(fill_cursor + 1.0 / fill_rate,
                              avail_t0 + e / avail_rate)
            accepted, prev = row_table.insert(coord, line, it,
                                              self.hierarchy.snoop)
            if not accepted:
                # Capacity drain, then retry (must succeed on empty table).
                pending_reqs += self._drain(row_table, int(fill_cursor),
                                            kind, tile)
                drains += 1
                accepted, prev = row_table.insert(coord, line, it,
                                                  self.hierarchy.snoop)
                if not accepted:
                    raise RuntimeError("insert failed on empty Row Table")
            word_table.insert(it, addr % self.line_bytes, prev)

        pending_reqs += self._drain(row_table, int(fill_cursor), kind, tile)
        drains += 1
        if self.obs is not None:
            self.obs.tile_phase(tile, "fill", t_start, int(fill_cursor),
                                lines=int(iters.size))

        # ------------------------------------------------------- response
        finish = int(fill_cursor)
        served = 0
        wb_lo = wb_hi = -1
        wb_lines = 0
        for pline, access in pending_reqs:
            completion = access.resolve(self.dram)
            chain = word_table.traverse(pline.tail_i)
            served += len(chain)
            if kind in ("st", "rmw") and not pline.h_bit:
                # Write the modified line back through the DRAM interface.
                wr = self.dram.access(pline.line_addr, is_write=True,
                                      arrival=completion + 1,
                                      decoded=pline.coord + (pline.row,))
                wb_lines += 1
                if wb_lo < 0 or wr.arrival < wb_lo:
                    wb_lo = wr.arrival
                if wr.arrival > wb_hi:
                    wb_hi = wr.arrival
                completion = max(completion, wr.arrival)
            finish = max(finish, completion)
        if iters.size and served != iters.size:
            raise RuntimeError(
                f"word table served {served} of {iters.size} elements"
            )
        finish += RESPONSE_LATENCY
        if self.obs is not None:
            self.obs.tile_phase(tile, "response", int(fill_cursor), finish,
                                lines=len(pending_reqs))
            if wb_lines:
                self.obs.tile_phase(tile, "writeback", wb_lo, wb_hi,
                                    lines=wb_lines)

        values = apply_words(self.hostmem, kind, dtype, op, n_tile, iters,
                             addrs, src_values)
        unique = row_table.unique_lines
        count_instruction(self.stats, kind, int(iters.size), unique, drains)
        return IndirectResult(values=values, finish=finish,
                              elements=int(iters.size), unique_lines=unique,
                              drains=drains, start=t,
                              busy_until=int(fill_cursor))

    # ---------------------------------------------------------------- drain

    def _drain(self, row_table: RowTable, t: int, kind: str,
               tile: int = -1) -> list[tuple[PendingLine, AccessResult]]:
        """Request stage: issue drained lines in interleaved order."""
        obs = self.obs
        occupancy = row_table.occupancy if obs is not None else 0
        out = []
        drain_rate = self.config.drain_rate
        is_write = kind in ("st", "rmw")
        for j, pline in enumerate(row_table.drain()):
            arrival = t + j // drain_rate
            # The Row Table carries the coordinates decoded at fill time,
            # so neither path below re-maps the line.
            decoded = pline.coord + (pline.row,)
            if pline.h_bit:
                access = self.hierarchy.llc_access(
                    pline.line_addr, is_write, arrival, decoded=decoded)
            else:
                req = self.dram.access(pline.line_addr, is_write=False,
                                       arrival=arrival, decoded=decoded)
                access = AccessResult(HitLevel.DRAM, issue=arrival,
                                      request=req)
            out.append((pline, access))
        remote = self.dram.remote
        if remote is not None and out:
            # Far-memory accounting only: counts the drained lines that
            # live behind the link (the batch DX100 pipelines through it
            # while the baseline pays per-miss round trips).  Never alters
            # timing — the system enqueue already did the link traversal.
            far = sum(1 for pline, _ in out
                      if remote.is_far(pline.line_addr))
            if far:
                self.stats.add("indirect_far_lines", far)
        if obs is not None and out:
            end = t + (len(out) - 1) // drain_rate + 1
            obs.tile_phase(tile, "drain", t, end, lines=len(out))
            obs.rt_fill(t, occupancy, len(out))
        return out

