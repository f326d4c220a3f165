"""Row Table / Word Table fidelity: coalescing, capacity, drain order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import DRAMConfig, DRAMCoord
from repro.dram import AddressMapper
from repro.dx100 import RowTable, WordTable


def coord(ch=0, bg=0, ba=0, row=0, col=0):
    return DRAMCoord(channel=ch, rank=0, bankgroup=bg, bank=ba, row=row,
                     column=col)


def no_hit(line):
    return False


def test_duplicate_line_coalesces():
    rt = RowTable()
    ok1, prev1 = rt.insert(coord(row=1, col=0), line_addr=0x100, iteration=0,
                           h_bit_fn=no_hit)
    ok2, prev2 = rt.insert(coord(row=1, col=0), line_addr=0x100, iteration=5,
                           h_bit_fn=no_hit)
    assert ok1 and ok2
    assert prev1 is None and prev2 == 0
    assert rt.unique_lines == 1
    assert rt.coalescing_factor() == 2.0


def test_column_width_is_per_table():
    """Building a narrower table must not change an existing table's BCAM
    accounting (the width was once a class attribute shared by all)."""
    rt = RowTable(rows_per_slice=64, cols_per_row=8)
    for i in range(8):
        assert rt.insert(coord(row=1, col=i), 0x40 * i, i, no_hit)[0]
    assert rt.occupancy == 1
    RowTable(rows_per_slice=64, cols_per_row=2)
    assert rt.occupancy == 1


def test_capacity_rejects_when_slice_full():
    rt = RowTable(rows_per_slice=2, cols_per_row=8)
    assert rt.insert(coord(row=1), 0x000, 0, no_hit)[0]
    assert rt.insert(coord(row=2), 0x100, 1, no_hit)[0]
    ok, _ = rt.insert(coord(row=3), 0x200, 2, no_hit)
    assert not ok
    # A different bank's slice is unaffected.
    assert rt.insert(coord(ba=1, row=3), 0x300, 3, no_hit)[0]


def test_wide_row_consumes_extra_entries():
    # 9 distinct lines in one row need two BCAM entries (cols_per_row=8).
    rt = RowTable(rows_per_slice=2, cols_per_row=8)
    for i in range(9):
        ok, _ = rt.insert(coord(row=1, col=i), 0x1000 + i * 64, i, no_hit)
        assert ok
    # Slice is now full (2 units); a second row must be rejected.
    ok, _ = rt.insert(coord(row=2), 0x9000, 9, no_hit)
    assert not ok


def test_drain_groups_rows_per_bank():
    rt = RowTable()
    # Interleaved rows into one bank: A B A B.
    seq = [(1, 0x000), (2, 0x400), (1, 0x040), (2, 0x440)]
    for i, (row, line) in enumerate(seq):
        rt.insert(coord(row=row, col=line // 64), line, i, no_hit)
    lines = [p.row for p in rt.drain()]
    assert lines == [1, 1, 2, 2]


def test_drain_interleaves_channels_and_bankgroups():
    rt = RowTable()
    it = 0
    for ch in range(2):
        for bg in range(2):
            for col in range(2):
                rt.insert(coord(ch=ch, bg=bg, row=1, col=col),
                          (ch * 100 + bg * 10 + col) * 64, it, no_hit)
                it += 1
    order = [(p.coord[0], p.coord[2]) for p in rt.drain()]
    # Consecutive requests alternate channel fastest, bank group second.
    assert order[:4] == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_drain_resets_table():
    rt = RowTable()
    rt.insert(coord(row=1), 0, 0, no_hit)
    assert len(rt.drain()) == 1
    assert rt.occupancy == 0
    assert rt.drain() == []


def test_h_bit_sampled_once_per_line():
    calls = []

    def snoop(line):
        calls.append(line)
        return True

    rt = RowTable()
    rt.insert(coord(row=1), 0x40, 0, snoop)
    rt.insert(coord(row=1), 0x40, 1, snoop)
    assert calls == [0x40]
    assert rt.drain()[0].h_bit is True


def test_word_table_chain():
    wt = WordTable(8)
    wt.insert(0, word_offset=4, prev_iteration=None)
    wt.insert(3, word_offset=12, prev_iteration=0)
    wt.insert(5, word_offset=0, prev_iteration=3)
    assert wt.traverse(5) == [(0, 4), (3, 12), (5, 0)]
    assert wt.count == 3


def test_word_table_errors():
    wt = WordTable(4)
    wt.insert(0, 0, None)
    with pytest.raises(ValueError):
        wt.insert(0, 0, None)
    with pytest.raises(IndexError):
        wt.insert(4, 0, None)
    with pytest.raises(ValueError):
        wt.traverse(2)  # never inserted
    with pytest.raises(ValueError):
        WordTable(0)
    wt.clear()
    assert wt.count == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 22) - 1),
                min_size=1, max_size=300))
def test_no_word_lost_or_duplicated(addresses):
    """Every inserted word is recoverable from exactly one drained line."""
    mapper = AddressMapper(DRAMConfig())
    rt = RowTable(rows_per_slice=4, cols_per_row=2)
    wt = WordTable(len(addresses))
    drained = []
    for i, addr in enumerate(addresses):
        addr &= ~63
        c = mapper.map(addr)
        ok, prev = rt.insert(c, addr, i, no_hit)
        if not ok:
            drained += rt.drain()
            ok, prev = rt.insert(c, addr, i, no_hit)
            assert ok
        wt.insert(i, 0, prev)
    drained += rt.drain()
    recovered = []
    for line in drained:
        recovered += [i for i, _ in wt.traverse(line.tail_i)]
    assert sorted(recovered) == list(range(len(addresses)))
