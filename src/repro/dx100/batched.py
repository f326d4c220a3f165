"""Batched front-end: tile-granular DX100 stream/indirect kernels.

The accelerator half of the ``SystemConfig.frontend = "batched"`` split:

* :class:`BatchedStreamUnit` routes the SLD/SST issue loop through
  :meth:`repro.cache.batched.BatchedHierarchy.access_lines` — one decode,
  one fused function for the whole tile instead of two calls per line.

* :class:`BatchedIndirectUnit` computes the Row Table's drain batches with
  array operations instead of inserting one element at a time.  The scalar
  :class:`~repro.dx100.indirect_unit.IndirectUnit` (with
  :class:`~repro.dx100.row_table.RowTable` and the Word Table) is the
  specification; this unit reproduces its outcome exactly:

  - **Segments.**  Between two drains the table only grows, so a drain
    batch is the set of distinct lines of one run of elements (a
    *segment*).  A line's first touch in the segment allocates its
    column; every ``row_table_cols``-th new line of a (bank, row) takes a
    fresh BCAM entry; the segment ends at the first element whose slice
    would exceed ``row_table_rows`` entries.  That element opens the next
    segment, exactly as the scalar unit retries it on the emptied table.
  - **No Word Table.**  The scalar response stage reads a line's word
    chain only to count the elements it serves, and every element of a
    segment is served by exactly one drained line, so no chain is built.
  - **Issue order.**  Lines sort by (slice, first touch of their row,
    first touch of the line); ranking them within their slice and
    ordering by (rank, slice) is the round-robin of
    :meth:`RowTable.drain`.
  - **H bit.**  Each segment's lines are snooped once, after the previous
    drain has issued: snoops are side-effect free and cache state only
    changes at drains, so this is what the scalar first-touch snoop sees.

  - **Issue as columns.**  Each run of drained lines without the H bit
    enters DRAM in one :meth:`~repro.dram.DRAMSystem.access_lines` call;
    no per-line request object is built.  The response waits on the
    returned tickets line by line, in drain order, and enters each
    IST/IRMW writeback right after its own read finishes, as the scalar
    unit does (see docs/MODEL.md, "DX100 drains enter as columns").

  The fill clock keeps the scalar float recurrence.
  ``tests/dx100/test_indirect_differential`` pairs the two units tile by
  tile, including mid-fill drains.

Both units run the same argument checks, element selection, Word
Modifier memory update and counters: the module-level helpers
:func:`~repro.dx100.indirect_unit.select_elements`,
:func:`~repro.dx100.indirect_unit.apply_words` and
:func:`~repro.dx100.indirect_unit.count_instruction`.  The differential
suites assert identical timings, stats, and DRAM streams.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from repro.common.types import AluOp, DType
from repro.dx100.indirect_unit import (RESPONSE_LATENCY, IndirectResult,
                                       IndirectUnit, apply_words,
                                       count_instruction, select_elements)
from repro.dx100.stream_unit import StreamUnit


class BatchedStreamUnit(StreamUnit):
    """SLD/SST over the fused whole-tile LLC path."""

    def _issue_lines(self, lines: np.ndarray, is_write: bool, t_start: int,
                     avail: tuple[int, float] | None = None,
                     elems_per_line: float = 1.0) -> tuple[int, int]:
        if not len(lines):
            return t_start, t_start
        return self.hierarchy.access_lines(
            lines, is_write, t_start,
            window=self.config.request_table,
            rate=self.config.stream_issue_rate,
            avail=avail, elems_per_line=elems_per_line)


class BatchedIndirectUnit(IndirectUnit):
    """ILD/IST/IRMW with whole-segment array Row Table fills."""

    def execute(self, kind: str, base: int, dtype: DType,
                indices: np.ndarray, cond: np.ndarray | None,
                src_values: np.ndarray | None, t_start: int,
                op: AluOp | None = None,
                index_avail: tuple[int, float] | None = None,
                tile: int = -1) -> IndirectResult:
        n_tile, iters, addrs = select_elements(kind, base, dtype, indices,
                                               cond, op)
        n = int(iters.size)

        t = t_start + (self.tlb.translate_tile(addrs) if addrs.size else 0)
        clock = _FillClock(t, n, self.config.fill_rate, index_avail)
        is_write = kind in ("st", "rmw")
        # Per drained line, in drain order: its position in the tile, its
        # H bit, and its handle (an ``AccessResult`` through the LLC, else
        # its DRAM ticket).
        drained: list[np.ndarray] = []
        h_bits: list[bool] = []
        handles: list = []
        drains = 0

        if n:
            fields = self.mapper.map_arrays(addrs)
            lines = fields["line"]
            dram_cfg = self.mapper.config
            # Slice key in drain-interleave order (rank, bank, bankgroup,
            # channel), and one key per (slice, row).
            slices = ((fields["rank"] * dram_cfg.banks_per_group
                       + fields["bank"]) * dram_cfg.bankgroups
                      + fields["bankgroup"]) * dram_cfg.channels \
                + fields["channel"]
            groups = slices * dram_cfg.rows + fields["row"]
            rows_cap = self.config.row_table_rows
            cols = self.config.row_table_cols
            s = 0
            span = n
            while s < n:
                hi = min(n, s + span)
                end, first, units = _segment(
                    lines[s:hi], slices[s:hi], groups[s:hi], rows_cap, cols)
                if end == hi - s and hi < n:
                    span *= 2   # no overflow inside the window: widen it
                    continue
                if end == 0:
                    raise RuntimeError("insert failed on empty Row Table")
                pos = first + s
                # A mid-fill drain issues when the overflowing element is
                # decoded; the last one when the fill ends.
                seg_h, seg_handles = self._issue(
                    int(clock.after(min(s + end, n - 1))), fields, pos,
                    units, is_write, tile)
                drained.append(pos)
                h_bits += seg_h
                handles += seg_handles
                drains += 1
                span = 2 * end
                s += end
        else:
            drains += 1   # the final drain of an empty table issues nothing
        fill_end = int(clock.after(n - 1))
        if self.obs is not None:
            self.obs.tile_phase(tile, "fill", t_start, fill_end, lines=n)

        # ------------------------------------------------------- response
        # Waits go line by line in drain order, each servicing only its
        # own channel, and each writeback enters its channel right after
        # its own read finishes: the scalar unit's order, so the channels
        # (and the shared far link) see the same calls.
        finish = fill_end
        wb_lo = wb_hi = -1
        wb_lines = 0
        dram = self.dram
        unique = len(h_bits)
        if unique:
            pos = np.concatenate(drained)
            channels = fields["channel"][pos].tolist()
            finish_of = [ctrl.finish_of for ctrl in dram.controllers]
            write_line = dram.write_line
            decoded = (zip(lines[pos].tolist(),
                           *(fields[name][pos].tolist() for name in
                             ("rank", "bankgroup", "bank", "row")))
                       if is_write else repeat(None))
            for h_bit, handle, channel, coord in zip(h_bits, handles,
                                                     channels, decoded):
                if h_bit:
                    completion = handle.resolve(dram)
                else:
                    completion = finish_of[channel](handle)
                    if is_write:
                        # Write the modified line back through the DRAM
                        # interface.
                        arrival = write_line(coord[0], completion + 1,
                                             channel, *coord[1:])
                        wb_lines += 1
                        if wb_lo < 0 or arrival < wb_lo:
                            wb_lo = arrival
                        if arrival > wb_hi:
                            wb_hi = arrival
                        if arrival > completion:
                            completion = arrival
                if completion > finish:
                    finish = completion
            dram.release_lines()
        finish += RESPONSE_LATENCY
        if self.obs is not None:
            self.obs.tile_phase(tile, "response", fill_end, finish,
                                lines=unique)
            if wb_lines:
                self.obs.tile_phase(tile, "writeback", wb_lo, wb_hi,
                                    lines=wb_lines)

        values = apply_words(self.hostmem, kind, dtype, op, n_tile, iters,
                             addrs, src_values)
        count_instruction(self.stats, kind, n, unique, drains)
        return IndirectResult(values=values, finish=finish,
                              elements=n, unique_lines=unique,
                              drains=drains, start=t, busy_until=fill_end)

    # ---------------------------------------------------------------- drain

    def _issue(self, t: int, fields: dict[str, np.ndarray], pos: np.ndarray,
               units: int, is_write: bool, tile: int
               ) -> tuple[list[bool], list]:
        """Request stage of one drain: the scalar ``_drain`` over the tile
        elements ``pos``, whose lines are already in issue order.  Returns
        each line's H bit and handle: its ``AccessResult`` through the
        LLC, else its DRAM ticket.

        Each run of lines without the H bit enters DRAM as one column
        batch; an H line goes through the LLC at its place in the order,
        so a DRAM request the LLC makes keeps its enqueue order."""
        lines = fields["line"][pos]
        line_list = lines.tolist()
        snoop = self.hierarchy.snoop
        h_bits = [snoop(line) for line in line_list]
        n = len(line_list)
        arrivals = t + np.arange(n, dtype=np.int64) // self.config.drain_rate
        dram = self.dram
        columns = [fields[name][pos] for name in
                   ("channel", "rank", "bankgroup", "bank", "row")]
        handles: list = []
        run = 0
        for j in [j for j, h_bit in enumerate(h_bits) if h_bit] + [n]:
            if run < j:
                handles += dram.access_lines(
                    lines[run:j], arrivals[run:j],
                    *(column[run:j] for column in columns))
            if j < n:
                handles.append(self.hierarchy.llc_access(
                    line_list[j], is_write, int(arrivals[j]),
                    tuple(int(column[j]) for column in columns)))
            run = j + 1
        remote = dram.remote
        if remote is not None:
            # Far-memory accounting only (see IndirectUnit._drain).
            far = int(np.count_nonzero(remote.far_mask(lines)))
            if far:
                self.stats.add("indirect_far_lines", far)
        if self.obs is not None:
            end = t + (n - 1) // self.config.drain_rate + 1
            self.obs.tile_phase(tile, "drain", t, end, lines=n)
            self.obs.rt_fill(t, units, n)
        return h_bits, handles


class _FillClock:
    """The scalar fill-stage cursor, ``fc = max(fc + 1/fill_rate,
    t0 + e/rate)`` per element ``e``, starting from ``fc = t``.

    :meth:`after` returns the cursor once element ``e`` is decoded
    (``t`` itself for ``e = -1``).  Without an index stream to wait for,
    and when ``1/fill_rate`` is a power of two small enough that every
    partial sum is a representable double, the repeated additions are
    exact and equal the closed form ``t + (e + 1)/fill_rate``; otherwise
    the recurrence runs element by element, as in the scalar unit.
    """

    def __init__(self, t: int, n: int, fill_rate: float,
                 index_avail: tuple[int, float] | None) -> None:
        step = 1.0 / fill_rate
        self.t = t
        self.step = step
        self.closed = (index_avail is None
                       and math.frexp(step)[0] == 0.5
                       and (t + n * step) / step < 2.0 ** 53)
        self.avail = index_avail if index_avail else (t, float("inf"))
        self.e = -1
        self.fc = float(t)

    def after(self, e: int) -> float:
        if self.closed:
            return self.t + (e + 1) * self.step
        # Drains come in element order, so the cursor only moves forward.
        fc = self.fc
        step = self.step
        t0, rate = self.avail
        for i in range(self.e + 1, e + 1):
            # fc = max(fc + step, t0 + i / rate), without the call.
            fc += step
            avail = t0 + i / rate
            if avail > fc:
                fc = avail
        self.e, self.fc = e, fc
        return fc


def _run_heads(keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each element's run of equal keys."""
    idx = np.arange(len(keys))
    head = np.ones(len(keys), dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    return np.maximum.accumulate(np.where(head, idx, 0))


def _segment(lines: np.ndarray, slices: np.ndarray, groups: np.ndarray,
             rows_cap: int, cols: int
             ) -> tuple[int, np.ndarray, int]:
    """One Row Table fill from an empty table over a window of elements.

    ``lines``/``slices``/``groups`` give each element's line address,
    interleave-ordered slice key and (slice, row) key.  Returns ``(end,
    first, units)``: ``end`` is the window index of the first element
    whose slice has no BCAM entry left (``len(lines)`` if none); ``first``
    is the window index of each tracked line's first touch, in drain issue
    order; ``units`` is the BCAM entries in use at the drain.
    """
    _, first = np.unique(lines, return_index=True)
    by_touch = np.argsort(first)
    first = first[by_touch]
    # Each line's ordinal among its row's lines, in touch order: every
    # ``cols``-th one allocates a BCAM entry.  The row's first touch is
    # its first line's.
    grp = groups[first]
    by_grp = np.argsort(grp, kind="stable")
    heads = _run_heads(grp[by_grp])
    ordinal = np.empty_like(by_grp)
    ordinal[by_grp] = np.arange(len(by_grp)) - heads
    row_first = np.empty_like(first)
    row_first[by_grp] = first[by_grp][heads]
    needs_entry = ordinal % cols == 0
    # A new line that finds its slice's entries all taken ends the fill:
    # that is the slice's (rows_cap + 1)-th allocation in touch order.
    alloc = first[needs_entry]
    alloc_slice = slices[alloc]
    by_slice = np.argsort(alloc_slice, kind="stable")
    taken = np.arange(len(by_slice)) - _run_heads(alloc_slice[by_slice])
    over = alloc[by_slice][taken >= rows_cap]
    end = int(over.min()) if over.size else len(lines)
    # The fill's lines are those first touched before ``end``.
    k = int(np.searchsorted(first, end))
    first = first[:k]
    units = int(np.count_nonzero(needs_entry[:k]))
    # Drain order: rows whole within a slice (by the row's first touch,
    # lines by their own), then one line per slice per round.
    sl = slices[first]
    order = np.lexsort((row_first[:k], sl))
    ranked = sl[order]
    rank = np.arange(k) - _run_heads(ranked)
    order = order[np.lexsort((ranked, rank))]
    return end, first[order], units
