"""Flat host-memory model backing the functional side of the simulation.

Workloads allocate their arrays here; both the CPU-side reference kernels
and the DX100 functional/timing models read and write the same backing
store, which is what lets every experiment cross-check the accelerator's
results against a NumPy reference.

Addresses are *physical*: the allocator hands out bump-pointer regions
(page-aligned) inside a single byte buffer, so an address is an offset that
the DRAM address mapper can decode directly (the paper's huge-page,
identity-translated regime, Section 3.6).

An *input* (:meth:`HostMemory.place_input`) is a segment no DX100
instruction writes.  Its CRC-32 is recorded when it is placed, and
:meth:`HostMemory.changed_inputs` names every input whose bytes have
changed since, so a workload can read its inputs through live views
instead of private copies and still validate against pristine data.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.common.types import DType, Interval

PAGE = 2 * 1024 * 1024  # huge page


class HostMemory:
    """Bump-pointer allocator over one flat byte buffer."""

    def __init__(self, size_bytes: int = 1 << 26, base: int = PAGE) -> None:
        if size_bytes <= 0:
            raise ValueError("memory size must be positive")
        self.base = base
        self.size = size_bytes
        self._buf = np.zeros(size_bytes, dtype=np.uint8)
        self._next = 0
        self._segments: dict[str, tuple[int, np.ndarray]] = {}
        self._input_crcs: dict[str, int] = {}

    # ------------------------------------------------------------ allocation

    def alloc(self, name: str, shape, dtype: DType | str,
              align: int = 4096) -> int:
        """Allocate a named array; returns its base physical address."""
        if name in self._segments:
            raise ValueError(f"segment {name!r} already allocated")
        np_dtype = np.dtype(dtype.numpy_name if isinstance(dtype, DType)
                            else dtype)
        count = int(np.prod(shape)) if not np.isscalar(shape) else int(shape)
        nbytes = count * np_dtype.itemsize
        offset = -(-self._next // align) * align  # round up
        if offset + nbytes > self.size:
            raise MemoryError(
                f"out of simulated memory allocating {name!r} "
                f"({nbytes} bytes at offset {offset}/{self.size})"
            )
        view = self._buf[offset:offset + nbytes].view(np_dtype)
        if not np.isscalar(shape):
            view = view.reshape(shape)
        self._next = offset + nbytes
        self._segments[name] = (self.base + offset, view)
        return self.base + offset

    def place(self, name: str, array: np.ndarray, align: int = 4096) -> int:
        """Allocate and initialize a segment from an existing array."""
        addr = self.alloc(name, array.shape, str(array.dtype), align)
        self.view(name)[...] = array
        return addr

    def place_input(self, name: str, array: np.ndarray,
                    align: int = 4096) -> tuple[int, np.ndarray]:
        """Place an input segment (one no DX100 instruction writes) and
        record its CRC-32.  Returns its base address and its live view,
        which the workload keeps in place of ``array``."""
        addr = self.place(name, array, align)
        view = self.view(name)
        self._input_crcs[name] = zlib.crc32(view)
        return addr, view

    def changed_inputs(self) -> list[str]:
        """The input segments whose bytes differ from when they were
        placed, in placement order."""
        return [name for name, crc in self._input_crcs.items()
                if zlib.crc32(self.view(name)) != crc]

    def view(self, name: str) -> np.ndarray:
        """The live NumPy view of a segment (mutations are visible to all)."""
        return self._segments[name][1]

    def interval_of(self, name: str) -> Interval:
        addr, view = self._segments[name]
        return Interval(addr, addr + view.nbytes)

    # ------------------------------------------------------------ raw access

    def _word_index(self, addrs, np_dtype: np.dtype) -> np.ndarray:
        """Element indices of ``addrs`` in the buffer viewed as ``np_dtype``;
        ``IndexError`` outside simulated memory, ``ValueError`` if an
        address is not aligned to the word size."""
        offs = np.asarray(addrs, dtype=np.int64) - self.base
        width = np_dtype.itemsize
        if offs.size and (offs.min() < 0 or offs.max() > self.size - width):
            raise IndexError("address outside simulated memory")
        if offs.size and (offs % width).any():
            raise ValueError(f"misaligned {np_dtype} access")
        return offs // width

    def read_words(self, addrs, dtype: DType) -> np.ndarray:
        """Vectorized typed read at arbitrary (aligned) addresses."""
        np_dtype = np.dtype(dtype.numpy_name)
        return self._buf.view(np_dtype)[self._word_index(addrs, np_dtype)]

    def write_words(self, addrs, values, dtype: DType) -> None:
        """Vectorized typed write; duplicate addresses: last value wins."""
        np_dtype = np.dtype(dtype.numpy_name)
        self._buf.view(np_dtype)[self._word_index(addrs, np_dtype)] = (
            np.asarray(values, dtype=np_dtype))

    def rmw_words(self, addrs, values, dtype: DType, ufunc) -> None:
        """Vectorized read-modify-write using an unbuffered NumPy ufunc
        (``np.add``, ``np.minimum``, ...) so duplicate addresses accumulate."""
        np_dtype = np.dtype(dtype.numpy_name)
        ufunc.at(self._buf.view(np_dtype), self._word_index(addrs, np_dtype),
                 np.asarray(values, dtype=np_dtype))
