import numpy as np
import pytest

from repro.common import DType
from repro.dx100 import HostMemory


def test_alloc_and_view_roundtrip():
    mem = HostMemory(1 << 20)
    base = mem.alloc("a", 16, DType.U32)
    assert base % 4096 == 0 and base >= mem.base
    view = mem.view("a")
    view[:] = np.arange(16)
    assert mem.read_words([base, base + 4], DType.U32).tolist() == [0, 1]


def test_place_initializes():
    mem = HostMemory(1 << 20)
    data = np.arange(8, dtype=np.float64)
    base = mem.place("x", data)
    assert mem.read_words([base + 8 * 7], DType.F64)[0] == 7.0


def test_duplicate_name_rejected():
    mem = HostMemory(1 << 20)
    mem.alloc("a", 4, DType.U32)
    with pytest.raises(ValueError):
        mem.alloc("a", 4, DType.U32)


def test_out_of_memory():
    mem = HostMemory(8192)
    with pytest.raises(MemoryError):
        mem.alloc("big", 10_000, DType.F64)


def test_interval_of():
    mem = HostMemory(1 << 20)
    base = mem.alloc("a", 16, DType.U32)
    iv = mem.interval_of("a")
    assert iv.lo == base and iv.hi == base + 64


def test_write_words_last_wins_on_duplicates():
    mem = HostMemory(1 << 20)
    base = mem.alloc("a", 4, DType.I64)
    mem.write_words([base, base, base + 8], [1, 2, 3], DType.I64)
    assert mem.view("a")[:2].tolist() == [2, 3]


def test_rmw_words_accumulates_duplicates():
    mem = HostMemory(1 << 20)
    base = mem.alloc("a", 4, DType.I64)
    mem.rmw_words([base, base, base], [1, 2, 3], DType.I64, np.add)
    assert mem.view("a")[0] == 6


def test_misaligned_and_oob_access_rejected():
    mem = HostMemory(1 << 16)
    base = mem.alloc("a", 4, DType.U32)
    with pytest.raises(ValueError):
        mem.read_words([base + 1], DType.U32)
    with pytest.raises(IndexError):
        mem.read_words([mem.base + (1 << 16)], DType.U32)
    with pytest.raises(IndexError):
        mem.read_words([0], DType.U32)  # below base


def test_float_rmw_via_minimum():
    mem = HostMemory(1 << 16)
    base = mem.place("f", np.full(4, 10.0))
    mem.rmw_words([base, base + 8], [3.0, 20.0], DType.F64, np.minimum)
    assert mem.view("f")[:2].tolist() == [3.0, 10.0]


def test_invalid_size():
    with pytest.raises(ValueError):
        HostMemory(0)


_ACCESSORS = {
    "read": lambda mem, addr: mem.read_words([addr], DType.I32),
    "write": lambda mem, addr: mem.write_words([addr], [7], DType.I32),
    "rmw": lambda mem, addr: mem.rmw_words([addr], [7], DType.I32, np.add),
}


@pytest.mark.parametrize("access", sorted(_ACCESSORS))
def test_every_typed_access_checks_bounds_and_alignment(access):
    """Read, write and read-modify-write share one address check: below
    the base (which NumPy would wrap to the last word), past the end, and
    misaligned (which floor division would round down) all raise, and
    memory is left untouched."""
    mem = HostMemory(1 << 16)
    base = mem.alloc("a", 4, DType.I32)
    run = _ACCESSORS[access]
    with pytest.raises(IndexError):
        run(mem, mem.base - 4)
    with pytest.raises(IndexError):
        run(mem, mem.base + mem.size)
    with pytest.raises(ValueError):
        run(mem, base + 2)
    assert not mem._buf.any()
