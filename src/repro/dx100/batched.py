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

  The fill clock keeps the scalar float recurrence; issue and response
  run over flat per-line lists.  ``tests/dx100/test_indirect_differential``
  pairs the two units tile by tile, including mid-fill drains.

Both units share the scalar classes' functional (numpy) execution; the
differential suites assert identical timings, stats, and DRAM streams.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.types import AluOp, DType
from repro.dx100.alu import RMW_UFUNCS
from repro.dx100.indirect_unit import (RESPONSE_LATENCY, IndirectResult,
                                       IndirectUnit)
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
            avail=avail, elems_per_line=elems_per_line,
            tenant=self.tenant)


class BatchedIndirectUnit(IndirectUnit):
    """ILD/IST/IRMW with whole-segment array Row Table fills."""

    def execute(self, kind: str, base: int, dtype: DType,
                indices: np.ndarray, cond: np.ndarray | None,
                src_values: np.ndarray | None, t_start: int,
                op: AluOp | None = None,
                index_avail: tuple[int, float] | None = None,
                tile: int = -1) -> IndirectResult:
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
            sel_idx = indices[keep]
        else:
            sel_idx = indices
        addrs = base + sel_idx * dtype.nbytes
        n = int(iters.size)

        t = t_start + (self.tlb.translate_tile(addrs) if addrs.size else 0)
        clock = _FillClock(t, n, self.config.fill_rate, index_avail)
        is_write = kind in ("st", "rmw")
        # Flat per-line records of every drained line, in drain order.
        accesses: list = []     # AccessResult (H bit set) or DRAMRequest
        h_bits: list[bool] = []
        issued: list[int] = []
        coords: list[tuple] = []
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
                seg_lines = lines[pos].tolist()
                seg_coords = list(zip(fields["channel"][pos].tolist(),
                                      fields["rank"][pos].tolist(),
                                      fields["bankgroup"][pos].tolist(),
                                      fields["bank"][pos].tolist(),
                                      fields["row"][pos].tolist()))
                # A mid-fill drain issues when the overflowing element is
                # decoded; the last one when the fill ends.
                seg_h, seg_acc = self._issue(
                    int(clock.after(min(s + end, n - 1))), seg_lines,
                    seg_coords, units, is_write, tile)
                issued += seg_lines
                coords += seg_coords
                h_bits += seg_h
                accesses += seg_acc
                drains += 1
                span = 2 * end
                s += end
        else:
            drains += 1   # the final drain of an empty table issues nothing
        fill_end = int(clock.after(n - 1))
        if self.obs is not None:
            self.obs.tile_phase(tile, "fill", t_start, fill_end, lines=n)

        # ------------------------------------------------------- response
        finish = fill_end
        wb_lo = wb_hi = -1
        wb_lines = 0
        dram = self.dram
        complete = dram.complete
        dram_access = dram.access
        tenant = self.tenant
        for access, h_bit, line, decoded in zip(accesses, h_bits, issued,
                                                coords):
            if h_bit:
                completion = access.resolve(dram)
            else:
                completion = complete(access)
                if is_write:
                    # Write the modified line back through the DRAM
                    # interface.
                    arrival = dram_access(line, True, completion + 1, None,
                                          decoded, tenant).arrival
                    wb_lines += 1
                    if wb_lo < 0 or arrival < wb_lo:
                        wb_lo = arrival
                    if arrival > wb_hi:
                        wb_hi = arrival
                    if arrival > completion:
                        completion = arrival
            if completion > finish:
                finish = completion
        finish += RESPONSE_LATENCY
        if self.obs is not None:
            self.obs.tile_phase(tile, "response", fill_end, finish,
                                lines=len(issued))
            if wb_lines:
                self.obs.tile_phase(tile, "writeback", wb_lo, wb_hi,
                                    lines=wb_lines)

        # ------------------------------------------------------ functional
        values = None
        if kind == "ld":
            values = np.zeros(n_tile, dtype=dtype.numpy_name)
            if addrs.size:
                values[iters] = self.hostmem.read_words(addrs, dtype)
        elif kind == "st":
            if addrs.size:
                src = np.asarray(src_values)[iters]
                self.hostmem.write_words(addrs, src, dtype)
        else:  # rmw
            if addrs.size:
                src = np.asarray(src_values)[iters]
                self.hostmem.rmw_words(addrs, src, dtype, RMW_UFUNCS[op])

        unique = len(issued)
        self.stats.add(f"i{kind}_elements", n)
        self.stats.add(f"i{kind}_lines", unique)
        self.stats.add("indirect_drains", drains)
        return IndirectResult(values=values, finish=finish,
                              elements=n, unique_lines=unique,
                              drains=drains, start=t, busy_until=fill_end)

    # ---------------------------------------------------------------- drain

    def _issue(self, t: int, lines: list[int], coords: list[tuple],
               units: int, is_write: bool, tile: int
               ) -> tuple[list[bool], list]:
        """Request stage of one drain: the scalar ``_drain`` over lines
        already in issue order.  Returns each line's H bit and its access
        (an ``AccessResult`` through the LLC, else the ``DRAMRequest``)."""
        snoop = self.hierarchy.snoop
        h_bits = [snoop(line) for line in lines]
        llc_access = self.hierarchy.llc_access
        dram_access = self.dram.access
        tenant = self.tenant
        drain_rate = self.config.drain_rate
        accesses = []
        append = accesses.append
        for j, (line, coord, h_bit) in enumerate(zip(lines, coords, h_bits)):
            arrival = t + j // drain_rate
            if h_bit:
                append(llc_access(line, is_write, arrival, coord, tenant))
            else:
                append(dram_access(line, False, arrival, None, coord, tenant))
        remote = self.dram.remote
        if remote is not None:
            # Far-memory accounting only (see IndirectUnit._drain).
            far = sum(map(remote.is_far, lines))
            if far:
                self.stats.add("indirect_far_lines", far)
        if self.obs is not None:
            end = t + (len(lines) - 1) // drain_rate + 1
            self.obs.tile_phase(tile, "drain", t, end, lines=len(lines))
            self.obs.rt_fill(t, units, len(lines))
        return h_bits, accesses


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
