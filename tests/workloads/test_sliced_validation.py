"""``Workload.validate`` compares every element one slice at a time, with
references built per slice from the workload's own inputs."""

import tracemalloc

import numpy as np
import pytest

from repro.dx100 import HostMemory
from repro.workloads import IntegerSort, SpatterXRAGE
from repro.workloads import base
from repro.workloads.base import VALIDATE_SLICE, key_counts, last_writer

SLICES = 4


class _TwiceWritten(HostMemory):
    """Host memory that edits XRAGE's inputs as they are placed, so that
    element 5 and the final element write one target (11, then 22).  The
    inputs' CRCs are recorded after the edit, as for any generated
    input."""

    def place_input(self, name, array, align=4096):
        if name in ("B", "C"):
            array = array.copy()
        if name == "B":
            array[-1] = array[5]
        elif name == "C":
            array[5], array[-1] = 11, 22
        return super().place_input(name, array, align)


@pytest.fixture(scope="module")
def xrage():
    """An XRAGE whose ``A`` spans four slices and whose indices span two
    input chunks, with one target written twice: first in the first
    chunk, last by the final element.  ``A`` holds the correct state."""
    wl = SpatterXRAGE(scale=VALIDATE_SLICE + 4096,
                      region=SLICES * VALIDATE_SLICE)
    mem = _TwiceWritten(1 << 26)
    wl.generate(mem)
    assert wl.indices[-1] == wl.indices[5]
    mem.view("A")[wl.indices] = wl.values   # the last writer wins
    return wl, mem


@pytest.fixture(scope="module")
def integer_sort():
    wl = IntegerSort(scale=1 << 12, bucket_space=SLICES * VALIDATE_SLICE)
    mem = HostMemory(1 << 25)
    wl.generate(mem)
    np.add.at(mem.view("count"), wl.keys, 1)
    return wl, mem


def test_correct_state_validates(xrage, integer_sort):
    for wl, mem in (xrage, integer_sort):
        wl.validate(mem)


def test_validate_peak_stays_under_two_slices(xrage):
    """The reference of a 2^22-element array is never built whole: the
    traced peak stays under two slices of int64, a quarter of ``A``."""
    wl, mem = xrage
    tracemalloc.start()
    try:
        wl.validate(mem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * VALIDATE_SLICE * 8, peak


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("s", range(SLICES))
def test_xrage_wrong_element_at_slice_edge_fails(xrage, s, where):
    wl, mem = xrage
    a = mem.view("A")
    at = s * VALIDATE_SLICE + (0 if where == "first" else VALIDATE_SLICE - 1)
    a[at] += 1
    try:
        with pytest.raises(AssertionError, match=r"'A'.* 1/4194304 "):
            wl.validate(mem)
    finally:
        a[at] -= 1


def test_xrage_earlier_writer_of_a_twice_written_index_fails(xrage):
    wl, mem = xrage
    a = mem.view("A")
    at = wl.indices[5]
    assert a[at] == 22
    a[at] = 11
    try:
        with pytest.raises(AssertionError, match="'A'"):
            wl.validate(mem)
    finally:
        a[at] = 22


def test_is_count_off_by_one_in_last_slice_fails(integer_sort):
    wl, mem = integer_sort
    count = mem.view("count")
    count[-1] += 1
    try:
        with pytest.raises(AssertionError, match="'count'"):
            wl.validate(mem)
    finally:
        count[-1] -= 1


def test_short_reference_fails():
    wl = IntegerSort(scale=64, bucket_space=1 << 10)
    mem = HostMemory(1 << 20)
    wl.generate(mem)
    wl.expected = lambda: {"count": np.zeros(1 << 9, dtype=np.uint32)}
    with pytest.raises(AssertionError, match="1024 elements"):
        wl.validate(mem)


def test_slice_references_match_whole_array_references(monkeypatch):
    """With 16-element slices, keys scanned 2 at a time and slices that
    do not divide the array, the joined slices equal the whole-array
    NumPy references, duplicates included."""
    monkeypatch.setattr(base, "VALIDATE_SLICE", 16)
    rng = np.random.default_rng(3)
    size = 50
    keys = rng.integers(0, size, 200)
    values = rng.integers(1, 1000, 200)
    scattered = np.zeros(size, dtype=np.int64)
    scattered[keys] = values
    counts = np.bincount(keys, minlength=size).astype(np.uint32)
    bounds = [(lo, min(lo + 16, size)) for lo in range(0, size, 16)]
    for reference, want in ((last_writer(keys, values), scattered),
                            (key_counts(keys, np.uint32), counts)):
        got = np.concatenate([reference(lo, hi) for lo, hi in bounds])
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
