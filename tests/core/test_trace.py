import numpy as np
import pytest

from repro.common import AccessType
from repro.core import BulkEmitter, TraceBuilder, split_static
from repro.core.trace import BlockTrace, TraceReader, join_blocks


def test_builder_emits_ops_in_order():
    tb = TraceBuilder()
    i0 = tb.load(0x100)
    i1 = tb.load(0x200, deps=(i0,))
    i2 = tb.store(0x300, deps=(i1,))
    trace = tb.finish()
    assert [trace.op(i).kind for i in range(3)] == [
        AccessType.LOAD, AccessType.LOAD, AccessType.STORE
    ]
    assert [trace.op(i).deps for i in range(3)] == [(), (0,), (1,)]
    assert trace.addr.tolist() == [0x100, 0x200, 0x300]
    assert len(trace) == 3


def test_compute_attributes_to_next_op():
    tb = TraceBuilder()
    tb.compute(5)
    tb.load(0x100, extra=2)
    trace = tb.finish()
    assert trace.extra.tolist() == [7]
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
    assert trace.op(0).kind is AccessType.RMW
    assert trace.atomic.tolist() == [True]


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


def test_trace_is_packed_columns():
    """No Python object per op: the columns are NumPy arrays of fixed
    width, and ``op`` reads plain ints back out of them."""
    em = BulkEmitter(1000)
    em.load(np.arange(999), 8 * np.arange(999), tag=np.arange(999))
    em.store([999], [8], deps=([998],), tag=7)
    trace = em.finish()
    nbytes = sum(getattr(trace, c).nbytes for c in trace.COLUMNS)
    assert nbytes <= 50 * len(trace)
    op = trace.op(999)
    assert (type(op.addr), type(op.tag), op.deps) == (int, int, (998,))
    assert type(op.deps[0]) is int and type(op.atomic) is bool


def _random_trace(rng, n):
    tb = TraceBuilder()
    for i in range(n):
        deps = tuple(sorted({int(d) for d in rng.integers(0, i, 3)})) \
            if i and rng.random() < 0.6 else ()
        tb.compute(int(rng.integers(0, 3)))
        tb.load(int(rng.integers(0, 1 << 20)) * 8, deps=deps,
                pc=int(rng.integers(0, 4)), tag=i)
    tb.compute(int(rng.integers(0, 3)))
    return tb.finish()


@pytest.mark.parametrize("floor", [0, 5, 40])
def test_lists_cut_plain_int_slices(floor):
    """``Trace.lists`` reads ops ``[lo, hi)`` as the ``MemOp`` fields,
    producers moved down by ``floor`` and those below it dropped."""
    trace = _random_trace(np.random.default_rng(1), 60)
    kinds, addrs, sizes, deps, extras, atomics, pcs, tags = \
        trace.lists(20, 50, floor)
    for k, i in enumerate(range(20, 50)):
        op = trace.op(i)
        assert (trace.op(i).kind, addrs[k], sizes[k], extras[k], atomics[k],
                pcs[k], tags[k]) == (
            [AccessType.LOAD, AccessType.STORE, AccessType.RMW][kinds[k]],
            op.addr, op.size, op.extra_instrs, op.atomic, op.pc, op.tag)
        assert deps[k] == tuple(d - floor for d in op.deps if d >= floor)
        assert all(type(d) is int for d in deps[k])


def test_block_trace_joins_to_the_whole_trace():
    """Blocks built from slices of a part join to the part's trace: the
    producers run on across blocks, and a tail that falls between blocks
    moves to the next block's first op."""
    def build(part):
        tb = TraceBuilder()
        for i in part:
            first = tb.load(8 * i, tag=i)
            tb.store(8 * i + 4, deps=(first,))
            if i % 3 == 0:
                tb.compute(2)      # after the iteration's last op
        return tb.finish()

    part = range(3, 40)
    blocks = BlockTrace([part[lo:lo + 6] for lo in range(0, len(part), 6)],
                        build)
    assert join_blocks(blocks.blocks()) == build(part)
    # A second pass reads the same blocks.
    assert join_blocks(blocks.blocks()) == build(part)


def test_reader_reads_every_op_once_across_blocks(monkeypatch):
    """Slices of at most ``SLICE`` ops, in order, none empty, across a
    block boundary and an empty block; the last block's tail at the end."""
    monkeypatch.setattr("repro.core.trace.SLICE", 7)
    whole = _random_trace(np.random.default_rng(2), 50)

    def build(part):
        tb = TraceBuilder()
        for i in part:
            op = whole.op(i)
            tb.load(op.addr, deps=tuple(d - part.start for d in op.deps
                                        if d >= part.start),
                    extra=op.extra_instrs, pc=op.pc, tag=op.tag)
        if part.stop == len(whole):
            tb.compute(whole.tail_instrs)
        return tb.finish()

    reader = TraceReader(BlockTrace([range(0, 20), range(20, 20),
                                     range(20, 50)], build))
    seen = []
    while (cut := reader.next_slice(0)) is not None:
        assert 0 < len(cut[0]) <= 7
        seen += cut[1]
    assert seen == whole.addr.tolist()
    assert reader.tail_instrs == whole.tail_instrs > 0
