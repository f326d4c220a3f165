import pytest

from repro.cache import MSHRFile


def test_allocate_and_release():
    m = MSHRFile(2)
    e = m.allocate(0x1000, allocated_at=5)
    assert len(m) == 1 and not m.full
    assert m.release(0x1000) is e
    assert len(m) == 0


def test_full_detection():
    m = MSHRFile(2)
    m.allocate(0, 0)
    m.allocate(64, 0)
    assert m.full
    with pytest.raises(RuntimeError):
        m.allocate(128, 0)


def test_coalescing_lookup_counts_waiters():
    m = MSHRFile(4)
    e = m.allocate(0x40, 0)
    assert m.lookup(0x40) is e
    assert m.lookup(0x40) is e
    assert e.waiters == 2
    assert m.lookup(0x80) is None


def test_duplicate_allocation_rejected():
    m = MSHRFile(4)
    m.allocate(0x40, 0)
    with pytest.raises(ValueError):
        m.allocate(0x40, 1)


def test_oldest_is_fifo():
    m = MSHRFile(4)
    m.allocate(1 * 64, 0)
    m.allocate(2 * 64, 1)
    assert m.oldest().line_addr == 64
    m.release(64)
    assert m.oldest().line_addr == 128


def test_release_unknown_raises():
    m = MSHRFile(2)
    with pytest.raises(KeyError):
        m.release(0xdead)


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        MSHRFile(0)


def test_resolved_entry_released():
    """An entry whose fill time is known is released lazily by lookup,
    or wholesale by the capacity sweep."""
    m = MSHRFile(2)
    e = m.allocate(0, 0)
    assert e.ready == -1
    e.ready = 123
    assert m.lookup(0) is None and len(m) == 0
    m.allocate(64, 0).ready = 7
    m.allocate(128, 0)
    m.release_resolved()
    assert len(m) == 1 and m.oldest().line_addr == 128
