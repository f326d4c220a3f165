"""DX100 top level: the controller that dispatches instructions to units.

The controller (Section 3.5) receives instructions from cores as
memory-mapped stores, schedules them through a scoreboard that blocks on
tile hazards (no renaming), and retires them by setting the destination
tiles' ready bits.  Units are independent, so a streaming load of the next
tile overlaps the indirect unit's work on the current one — the
double-buffering the programming model exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.config import SystemConfig
from repro.common.stats import Stats
from repro.cache.hierarchy import MemoryHierarchy
from repro.dram.system import DRAMSystem
from repro.dx100.alu import AluUnit
from repro.dx100.coherency import CoherencyAgent
from repro.dx100.hostmem import HostMemory
from repro.dx100.indirect_unit import IndirectUnit
from repro.dx100.isa import Instr, Opcode
from repro.dx100.range_fuser import RangeFuser
from repro.dx100.regfile import RegisterFile
from repro.dx100.scratchpad import Scratchpad
from repro.dx100.stream_unit import StreamUnit
from repro.dx100.tlb import TLB

_UNIT_OF = {
    Opcode.SLD: "stream", Opcode.SST: "stream",
    Opcode.ILD: "indirect", Opcode.IST: "indirect", Opcode.IRMW: "indirect",
    Opcode.ALUV: "alu", Opcode.ALUS: "alu",
    Opcode.RNG: "rng",
}

@dataclass
class InstrRecord:
    """Execution record of one dispatched instruction."""

    instr: Instr
    dispatch: int
    start: int
    finish: int
    detail: object = None


class DX100:
    """One DX100 instance wired to the host memory system."""

    def __init__(self, config: SystemConfig, hierarchy: MemoryHierarchy,
                 dram: DRAMSystem, hostmem: HostMemory,
                 instance: int = 0) -> None:
        if config.dx100 is None:
            raise ValueError("SystemConfig has no DX100 configuration")
        self.config = config.dx100
        self.instance = instance
        self.hierarchy = hierarchy
        self.dram = dram
        self.hostmem = hostmem
        self.stats = Stats()
        self.spd = Scratchpad(
            self.config,
            base=Scratchpad.instance_base(instance, self.config))
        self.regs = RegisterFile(self.config)
        self.tlb = TLB(self.config, self.stats)
        # The batched units need the fused hierarchy's whole-tile path, so
        # the selection follows the hierarchy actually wired in (callers
        # like tests may pair a scalar hierarchy with a batched-default
        # config).
        if config.frontend == "batched" and hasattr(hierarchy,
                                                    "access_lines"):
            from repro.dx100.batched import (BatchedIndirectUnit,
                                             BatchedStreamUnit)
            stream_cls: type[StreamUnit] = BatchedStreamUnit
            indirect_cls: type[IndirectUnit] = BatchedIndirectUnit
        else:
            stream_cls = StreamUnit
            indirect_cls = IndirectUnit
        self.stream = stream_cls(self.config, hierarchy, dram, hostmem,
                                 self.tlb, self.stats)
        self.indirect = indirect_cls(self.config, hierarchy, dram, hostmem,
                                     self.tlb, self.stats)
        self.alu = AluUnit(self.config.alu_lanes)
        self.fuser = RangeFuser()
        self.coherency = CoherencyAgent(hierarchy.line, stats=self.stats)
        self._unit_free = {"stream": 0, "indirect": 0, "alu": 0, "rng": 0}
        # Owning tenant (-1 = untagged); see :meth:`set_tenant`.
        self.tenant = -1
        # Observability bus; None (one branch per dispatch) when off.
        self.obs = None
        self.records: list[InstrRecord] = []
        lo, hi = self.spd.region()
        hierarchy.register_spd_region(lo, hi, self.config.spd_read_latency)

    def set_tenant(self, tenant: int) -> None:
        """Tag every request this instance issues with ``tenant``.

        The tag feeds per-tenant accounting in the controllers only — it
        never changes how requests are scheduled, so a tagged run and an
        untagged run produce identical timing.
        """
        self.tenant = tenant
        self.stream.tenant = tenant
        self.indirect.tenant = tenant

    # ------------------------------------------------------------- core side

    def preload_pages(self, lo: int, hi: int) -> int:
        """The PTE-transfer API (done once per application)."""
        return self.tlb.preload(lo, hi)

    def write_register(self, index: int, value) -> None:
        self.regs.write(index, value)

    def tile_ready(self, tile: int) -> int:
        """Cycle at which the tile's ready bit is set (polled by ``wait``)."""
        return self.spd.ready_at(tile)

    def wait(self, tiles, t: int) -> int:
        """Core-side wait on ready bits; returns the resume cycle."""
        ready = max((self.tile_ready(ti) for ti in tiles), default=t)
        return max(t, ready)

    def mark_consumed(self, tile: int) -> None:
        """Record that cores read this tile (sets coherency V bits)."""
        lo = self.spd.elem_addr(tile, 0)
        hi = self.spd.elem_addr(tile + 1, 0) if (
            tile + 1 < self.config.num_tiles) else self.spd.region()[1]
        self.coherency.core_read_range(lo, hi)

    # -------------------------------------------------------------- dispatch

    def _cond(self, instr: Instr) -> np.ndarray | None:
        return None if instr.tc is None else self.spd.read(instr.tc)

    def _ready(self, tiles) -> int:
        return max((self.spd.ready_at(t) for t in tiles), default=0)

    def dispatch(self, instr: Instr, t_core: int) -> InstrRecord:
        """Deliver and execute one instruction; returns its record."""
        dispatch = t_core + self.config.noc_latency
        unit = _UNIT_OF[instr.opcode]
        if ((instr.is_indirect or instr.opcode == Opcode.SST)
                and instr.ts1 is not None):
            # Fine-grained overlap (finish bits, Section 3.5): the consumer
            # may begin as soon as its operand tiles start streaming in; it
            # paces itself on per-element availability.
            streamable = {instr.ts1, instr.ts2} - {None}
            src_ready = max(
                (self.spd.tile(t).streaming_from for t in streamable),
                default=0)
            others = [t for t in instr.source_tiles() if t not in streamable]
            src_ready = max(src_ready, self._ready(others))
        else:
            src_ready = self._ready(instr.source_tiles())
        start = max(dispatch, self._unit_free[unit], src_ready,
                    self._ready(instr.dest_tiles()))
        # Invalidate core-cached scratchpad lines of the tiles this
        # instruction touches (coherency agent, Section 3.6).
        for tile in (*instr.source_tiles(), *instr.dest_tiles()):
            lo = self.spd.elem_addr(tile, 0)
            hi = lo + self.config.tile_elems * self.spd.word_bytes
            self.coherency.invalidate_range(lo, hi, self.hierarchy)

        handler = getattr(self, f"_exec_{instr.opcode.name.lower()}")
        finish, detail = handler(instr, start)

        # Units are pipelined: the issue port frees before the data lands.
        busy = getattr(detail, "busy_until", 0) or finish
        self._unit_free[unit] = min(busy, finish) if busy else finish
        record = InstrRecord(instr=instr, dispatch=dispatch, start=start,
                             finish=finish, detail=detail)
        self.records.append(record)
        self.stats.add("instructions")
        self.stats.add(f"op_{instr.opcode.name.lower()}")
        if self.obs is not None:
            self._publish(instr, unit, start, finish)
        return record

    def _publish(self, instr: Instr, unit: str, start: int,
                 finish: int) -> None:
        """Emit the instruction span and, for stream/ALU ops, the tile
        lifecycle phase (indirect ops publish their own fill/drain/
        response/writeback phases from inside the Indirect unit)."""
        obs = self.obs
        obs.dx_span(unit, instr.opcode.name, start, finish)
        op = instr.opcode
        if op is Opcode.SLD:
            obs.tile_phase(instr.td, "stream-in", start, finish)
        elif op is Opcode.SST:
            obs.tile_phase(instr.ts1, "stream-out", start, finish)
        elif op in (Opcode.ALUV, Opcode.ALUS):
            obs.tile_phase(instr.td, "alu", start, finish)

    # ------------------------------------------------------------- execution

    def _exec_sld(self, instr: Instr, start: int):
        lo = int(self.regs.read(instr.rs1))
        hi = int(self.regs.read(instr.rs2))
        step = int(self.regs.read(instr.rs3))
        res = self.stream.load(instr.base, instr.dtype, lo, hi, step,
                               self._cond(instr), start)
        self.spd.write(instr.td, res.values, ready_at=res.finish,
                       streaming_from=res.first_avail, producer=res)
        # The tile owns the values now; the record keeps only timing, so
        # a run's records do not pin every streamed tile until it ends.
        res.values = None
        return res.finish, res

    def _exec_sst(self, instr: Instr, start: int):
        lo = int(self.regs.read(instr.rs1))
        hi = int(self.regs.read(instr.rs2))
        step = int(self.regs.read(instr.rs3))
        src = self.spd.tile(instr.ts1)
        values = self.spd.read(instr.ts1)
        avail = None
        min_finish = 0
        producer = src.producer
        if (producer is not None and hasattr(producer, "stream_rate")
                and src.streaming_from < src.ready_at):
            avail = (max(start, src.streaming_from), producer.stream_rate)
            min_finish = src.ready_at
        res = self.stream.store(instr.base, instr.dtype, lo, hi, step,
                                values, self._cond(instr), start,
                                avail=avail, min_finish=min_finish)
        return res.finish, res

    def _indirect_common(self, instr: Instr, start: int, kind: str):
        indices = self.spd.read(instr.ts1)
        # Element availability paces the fill: combine the streaming rates
        # of every streamed operand (index tile, and value tile for ST/RMW).
        t0, rate = start, float("inf")
        for tile_id in {instr.ts1, instr.ts2} - {None}:
            tile = self.spd.tile(tile_id)
            producer = tile.producer
            if (producer is not None and hasattr(producer, "stream_rate")
                    and tile.streaming_from < tile.ready_at):
                t0 = max(t0, tile.streaming_from)
                rate = min(rate, producer.stream_rate)
        index_avail = (max(start, t0), rate) if rate != float("inf") else None
        src = self.spd.read(instr.ts2) if instr.ts2 is not None else None
        res = self.indirect.execute(
            kind, instr.base, instr.dtype, indices, self._cond(instr), src,
            start, op=instr.op, index_avail=index_avail,
            tile=instr.td if instr.td is not None else instr.ts1,
        )
        return res

    def _exec_ild(self, instr: Instr, start: int):
        res = self._indirect_common(instr, start, "ld")
        self.spd.write(instr.td, res.values, ready_at=res.finish,
                       streaming_from=res.start, producer=res)
        return res.finish, res

    def _exec_ist(self, instr: Instr, start: int):
        res = self._indirect_common(instr, start, "st")
        return res.finish, res

    def _exec_irmw(self, instr: Instr, start: int):
        res = self._indirect_common(instr, start, "rmw")
        return res.finish, res

    def _exec_aluv(self, instr: Instr, start: int):
        a = self.spd.read(instr.ts1)
        b = self.spd.read(instr.ts2)
        if len(a) != len(b):
            raise ValueError("ALUV operand tiles differ in length")
        out = self.alu.apply(instr.op, a, b, instr.dtype, self._cond(instr))
        finish = start + self.alu.cycles(len(a))
        self.spd.write(instr.td, out, ready_at=finish)
        return finish, None

    def _exec_alus(self, instr: Instr, start: int):
        a = self.spd.read(instr.ts1)
        scalar = self.regs.read(instr.rs1)
        out = self.alu.apply(instr.op, a, scalar, instr.dtype,
                             self._cond(instr))
        finish = start + self.alu.cycles(len(a))
        self.spd.write(instr.td, out, ready_at=finish)
        return finish, None

    def _exec_rng(self, instr: Instr, start: int):
        lows = self.spd.read(instr.ts1)
        highs = self.spd.read(instr.ts2)
        outer0 = int(self.regs.read(instr.rs1)) if instr.rs1 is not None else 0
        outer_ids = outer0 + np.arange(len(lows), dtype=np.int64)
        outer, inner = self.fuser.fuse(lows, highs, outer_ids,
                                       self._cond(instr),
                                       capacity=self.config.tile_elems)
        finish = start + self.fuser.cycles(len(inner))
        self.spd.write(instr.td, outer, ready_at=finish)
        self.spd.write(instr.td2, inner, ready_at=finish)
        return finish, None

    # -------------------------------------------------------------- programs

    def run_program(self, items, t_core: int = 0) -> int:
        """Execute a list of program items (see :mod:`repro.dx100.api`);
        returns the core-side completion cycle."""
        from repro.dx100.api import RegWrite, WaitTiles

        t = t_core
        for item in items:
            if isinstance(item, RegWrite):
                self.write_register(item.reg, item.value)
                t += 1
            elif isinstance(item, WaitTiles):
                t = self.wait(item.tiles, t)
                for tile in item.tiles:
                    self.mark_consumed(tile)
            elif isinstance(item, Instr):
                self.dispatch(item, t)
                t += 3  # three 64-bit memory-mapped stores
            else:
                raise TypeError(f"unknown program item {item!r}")
        return t
