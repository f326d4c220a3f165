import numpy as np
import pytest

from repro.common import AccessType
from repro.core import BulkEmitter, TraceBuilder, split_static


def test_builder_emits_ops_in_order():
    tb = TraceBuilder()
    i0 = tb.load(0x100)
    i1 = tb.load(0x200, deps=(i0,))
    i2 = tb.store(0x300, deps=(i1,))
    trace = tb.finish()
    assert trace.kind == [
        AccessType.LOAD, AccessType.LOAD, AccessType.STORE
    ]
    assert trace.deps == [(), (0,), (1,)]
    assert trace.addr == [0x100, 0x200, 0x300]
    assert len(trace) == 3


def test_compute_attributes_to_next_op():
    tb = TraceBuilder()
    tb.compute(5)
    tb.load(0x100, extra=2)
    trace = tb.finish()
    assert trace.extra == [7]
    assert trace.instructions == 8  # 1 op + 7 extra


def test_trailing_compute_goes_to_tail():
    tb = TraceBuilder()
    tb.load(0)
    tb.compute(10)
    trace = tb.finish()
    assert trace.tail_instrs == 10
    assert trace.instructions == 11


def test_forward_dependence_rejected():
    tb = TraceBuilder()
    tb.load(0)
    with pytest.raises(ValueError):
        tb.load(8, deps=(5,))


def test_negative_compute_rejected():
    tb = TraceBuilder()
    with pytest.raises(ValueError):
        tb.compute(-1)


def test_rmw_and_atomic_flags():
    tb = TraceBuilder()
    tb.rmw(0x40, atomic=True)
    trace = tb.finish()
    assert trace.kind == [AccessType.RMW]
    assert trace.atomic == [True]


def test_split_static_blocks():
    parts = split_static(list(range(10)), 4)
    assert len(parts) == 4
    assert [len(p) for p in parts] == [2, 2, 2, 4]
    assert sum(parts, []) == list(range(10))
    with pytest.raises(ValueError):
        split_static([1], 0)


def test_split_static_deals_ranges_as_ranges():
    parts = split_static(range(3, 13), 4)
    assert parts == [range(3, 5), range(5, 7), range(7, 9), range(9, 13)]
    assert split_static(range(2), 4)[2:] == [range(2, 2), range(2, 2)]


def test_split_static_matches_per_item_dealing():
    """Each item ``i`` lands on core ``min(i // chunk, ways - 1)``."""
    for n in range(0, 30):
        for ways in range(1, 9):
            items = list(range(100, 100 + n))
            chunk = max(1, n // ways)
            expect: list[list] = [[] for _ in range(ways)]
            for i, item in enumerate(items):
                expect[min(i // chunk, ways - 1)].append(item)
            assert split_static(items, ways) == expect, (n, ways)


# ------------------------------------------------------------ BulkEmitter


def test_bulk_emitter_matches_builder_op_for_op():
    tb = TraceBuilder()
    tb.compute(5)
    a = tb.load(0x100, extra=2, tag=7)
    b = tb.store(0x200, size=4, deps=(a,), atomic=True, pc=3)
    tb.compute(1)
    tb.rmw(0x300, deps=(a, b), extra=1, atomic=True, pc=2, tag=9)
    tb.compute(4)
    want = tb.finish()

    em = BulkEmitter(3)
    em.compute(np.array([0, 2, 3]), np.array([5, 1, 4]))
    em.rmw([2], [0x300], deps=([0], [1]), extra=1, atomic=True, pc=2,
           tag=9)
    em.load([0], [0x100], extra=2, tag=7)
    em.store([1], [0x200], size=4, deps=([0],), atomic=True, pc=3)
    got = em.finish()
    assert got == want
    assert got.tail_instrs == 4 and got.instructions == want.instructions


@pytest.mark.parametrize("dep", [1, 2, -1], ids=["self", "forward",
                                                  "negative"])
def test_bulk_dependence_must_name_an_earlier_op(dep):
    em = BulkEmitter(3)
    em.load([0], [0])
    with pytest.raises(ValueError, match="unknown op"):
        em.load([1], [8], deps=([dep],))


def test_bulk_slot_left_unfilled_rejected():
    em = BulkEmitter(3)
    em.load([0, 2], [0, 16])
    with pytest.raises(ValueError, match="unfilled"):
        em.finish()


def test_bulk_slot_filled_twice_rejected():
    em = BulkEmitter(2)
    em.load([0, 1], [0, 8])
    em.store([1], [16])
    with pytest.raises(ValueError, match="twice"):
        em.finish()
    em = BulkEmitter(2)
    em.load([0, 0, 1], [0, 8, 16])
    with pytest.raises(ValueError, match="twice"):
        em.finish()


def test_bulk_positions_outside_the_trace_rejected():
    em = BulkEmitter(2)
    with pytest.raises(ValueError):
        em.load([2], [0])
    with pytest.raises(ValueError):
        em.load([-1], [0])
    with pytest.raises(ValueError):
        em.compute([3], 1)
    with pytest.raises(ValueError):
        em.compute([0], -1)


def test_bulk_empty_trace_keeps_its_tail():
    em = BulkEmitter(0)
    em.compute([0, 0], 3)
    trace = em.finish()
    assert len(trace) == 0 and trace.tail_instrs == 6


def test_bulk_columns_share_repeated_ints():
    """Equal tags and dependence targets are one int object each, as when
    a kernel passes the same int to several builder calls."""
    em = BulkEmitter(300)
    em.load(np.arange(298), 8 * np.arange(298), tag=1000)
    em.load([298], [0], deps=([297],), tag=1000)
    em.store([299], [8], deps=([297],), tag=1000)
    trace = em.finish()
    assert trace.tag[0] is trace.tag[1] is trace.tag[299]
    assert trace.deps[298][0] is trace.deps[299][0]
