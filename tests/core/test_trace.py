import pytest

from repro.common import AccessType
from repro.core import TraceBuilder, split_static


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
