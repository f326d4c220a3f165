"""The Indirect Access unit's Row Table (Figure 4 a/b).

One slice per DRAM bank.  A slice's BCAM tracks up to ``rows`` open target
rows; each row entry's SRAM side tracks up to ``cols`` target columns
(cache lines), each holding the tail of that line's word linked-list in the
Word Table and the cache-hit (H) bit sampled at first touch.

The structure realizes the three bandwidth mechanisms:

* **reorder** — drain emits all buffered columns of a DRAM row
  consecutively, so the bank services them as row hits;
* **coalesce** — a second word to an already-tracked line only extends the
  word list instead of adding a request;
* **interleave** — drain round-robins across slices ordered so consecutive
  requests alternate channels first and bank groups second.

A row with more than ``cols`` distinct lines consumes additional BCAM
entries (one per ``cols`` lines), which is how the hardware's fixed-shape
SRAM is modelled without losing capacity semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.types import DRAMCoord


@dataclass
class ColumnRecord:
    """One tracked cache line within a row."""

    line_addr: int
    tail_i: int          # last word-table iteration touching this line
    h_bit: bool          # line present in the cache hierarchy at first touch
    words: int = 1


@dataclass
class _Slice:
    coord: tuple[int, int, int, int]       # (channel, rank, bankgroup, bank)
    cols_per_entry: int                    # the owning table's row width
    rows: dict[int, dict[int, ColumnRecord]] = field(default_factory=dict)
    #: BCAM entries consumed (ceil(lines/cols_per_entry) summed over rows),
    #: maintained incrementally by :meth:`RowTable.insert`, whose capacity
    #: check reads this counter (rows only grow between drains, so it is
    #: exact); :meth:`entry_units` still recomputes from the rows so
    #: invariant checks detect state corrupted behind the API.
    units: int = 0

    def entry_units(self) -> int:
        return sum(-(-len(cols) // self.cols_per_entry)
                   for cols in self.rows.values())


@dataclass
class PendingLine:
    """A drained request: one unique cache line plus its word list tail."""

    line_addr: int
    coord: tuple[int, int, int, int]
    row: int
    tail_i: int
    h_bit: bool
    words: int


class RowTable:
    """All slices of the Row Table plus the interleaving drain order."""

    def __init__(self, rows_per_slice: int = 64, cols_per_row: int = 8) -> None:
        self.rows_per_slice = rows_per_slice
        self.cols_per_row = cols_per_row
        self._slices: dict[tuple[int, int, int, int], _Slice] = {}
        self.inserted_words = 0
        self.unique_lines = 0

    # ---------------------------------------------------------------- insert

    def insert(self, coord: DRAMCoord, line_addr: int, iteration: int,
               h_bit_fn) -> tuple[bool, int | None]:
        """Insert one word.

        Returns ``(accepted, previous_tail)``; ``accepted`` is False when the
        slice is out of BCAM entries and the table must be drained first.
        ``previous_tail`` is the prior word-list tail for the line (None for
        a fresh line), which the caller links into the Word Table.
        ``h_bit_fn(line_addr)`` is consulted only on a line's first touch —
        the directory snoop of Section 3.6.
        """
        flat_bank = coord.flat_bank
        row = coord.row
        sl = self._slices.get(flat_bank)
        if sl is None:
            sl = _Slice(coord=flat_bank, cols_per_entry=self.cols_per_row)
            self._slices[flat_bank] = sl
        cols = sl.rows.get(row)
        if cols is not None and line_addr in cols:
            rec = cols[line_addr]
            prev = rec.tail_i
            rec.tail_i = iteration
            rec.words += 1
            self.inserted_words += 1
            return True, prev
        # A new line: check BCAM capacity.
        if cols is None:
            needed = 1
        else:
            needed = 1 if len(cols) % self.cols_per_row == 0 else 0
        if sl.units + needed > self.rows_per_slice:
            return False, None
        if cols is None:
            cols = {}
            sl.rows[row] = cols
        cols[line_addr] = ColumnRecord(line_addr=line_addr, tail_i=iteration,
                                       h_bit=bool(h_bit_fn(line_addr)))
        sl.units += needed
        self.inserted_words += 1
        self.unique_lines += 1
        return True, None

    # ----------------------------------------------------------------- drain

    def drain(self) -> list[PendingLine]:
        """Empty the table, returning requests in issue order.

        Issue order: round-robin one column at a time across slices sorted so
        that consecutive picks alternate channel fastest, then bank group,
        then bank; within a slice, rows drain completely before the next row
        starts (the row-hit grouping).
        """
        def interleave_key(sl: _Slice) -> tuple:
            ch, ra, bg, ba = sl.coord
            return (ra, ba, bg, ch)

        ordered = sorted(self._slices.values(), key=interleave_key)
        # Flatten each slice into its per-bank row-grouped column order.
        per_slice: list[list[PendingLine]] = []
        for sl in ordered:
            lines: list[PendingLine] = []
            for row, cols in sl.rows.items():
                for rec in cols.values():
                    lines.append(PendingLine(
                        line_addr=rec.line_addr, coord=sl.coord, row=row,
                        tail_i=rec.tail_i, h_bit=rec.h_bit, words=rec.words,
                    ))
            per_slice.append(lines)
        out: list[PendingLine] = []
        cursors = [0] * len(per_slice)
        remaining = sum(len(s) for s in per_slice)
        while remaining:
            for i, lines in enumerate(per_slice):
                if cursors[i] < len(lines):
                    out.append(lines[cursors[i]])
                    cursors[i] += 1
                    remaining -= 1
        self._slices.clear()
        return out

    # ---------------------------------------------------------------- stats

    @property
    def occupancy(self) -> int:
        return sum(sl.entry_units() for sl in self._slices.values())

    def coalescing_factor(self) -> float:
        """Words inserted per unique line (>= 1)."""
        if self.unique_lines == 0:
            return 1.0
        return self.inserted_words / self.unique_lines
