"""Workload framework.

Each paper benchmark provides three views of the same kernel:

* ``generate``        — allocate and initialize its arrays in host memory,
  keeping each input (an array no DX100 instruction writes) only as the
  live view :meth:`~repro.dx100.hostmem.HostMemory.place_input` returns;
  an array the program writes keeps a pristine copy only where its
  reference needs one;
* ``core_trace``      — the memory-op trace of the legacy multicore code
  over a run of loop iterations (index loads feeding indirect accesses,
  address-calculation instruction counts, atomics where the kernel needs
  them); :meth:`Workload.baseline_traces` deals the iterations over the
  cores and cuts each core's part into blocks built as the core reaches
  them;
* ``dx100_schedule``  — the offloaded version: DX100 program items
  interleaved with the residual core work (:class:`CoreWork` items, whose
  traces are built when the run reaches them), tiled and double-buffered;
* ``expected``        — the NumPy reference the DX100 run's memory state is
  validated against, whole or (at paper scale) one slice at a time.

Scales are reduced relative to the paper (Python request-level simulation),
with access-pattern statistics preserved; see DESIGN.md.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.common.config import DX100Config
from repro.core.trace import BlockTrace, Trace, split_static
from repro.dx100.hostmem import HostMemory


@dataclass(frozen=True)
class CoreWork:
    """Residual multicore work inside a DX100 schedule.

    ``build`` makes the per-core traces.  The runner calls it when the run
    reaches the item and drops the traces once they have run, so a
    schedule holds no trace of a chunk before or after that chunk runs."""

    build: Callable[[], list[Trace]]


# PCs used so the stride prefetcher and DMP can distinguish access streams.
PC_INDEX = 1
PC_INDIRECT = 2
PC_VALUE = 3
PC_OUTPUT = 4
PC_SPD = 5
PC_EXTRA = 6

# Per-element instruction costs, calibrated against the paper's
# Gather-Full microbenchmark (baseline ~13 dynamic instructions per
# element, DX100 residual near zero; Section 6.1) and the 3.6x geomean
# instruction reduction of Figure 11(a).
BASE_ADDR_CALC = 8     # address arithmetic + loop overhead per element

#: Elements :meth:`Workload.validate` compares per step.  A slice
#: reference is the largest array a check holds, so validating a
#: paper-scale array (XRAGE's 2^24-element ``A``) costs a few MB, not a
#: second copy of the array.
VALIDATE_SLICE = 1 << 20

#: A DMP target stream, ``(base, scale, index)``: target ``it`` is the
#: address ``base + scale * index[it]``, with ``index`` read in place.
DMPStream = tuple[int, int, np.ndarray]

#: An array's expected contents: the whole array, or a function of
#: ``(lo, hi)`` that returns the contents of ``[lo, hi)``.
Reference = np.ndarray | Callable[[int, int], np.ndarray]


class Workload(ABC):
    """One benchmark kernel."""

    name: str = "workload"
    suite: str = "suite"
    pattern: str = ""          # the Table 1 row for this kernel
    single_core_baseline: bool = False   # scatter: WAW hazards serialize
    #: Simulated host-memory footprint this workload needs.  The runner
    #: sizes :class:`~repro.dx100.hostmem.HostMemory` from this, so
    #: full-scale registry entries (paper-sized footprints) can raise it
    #: past the 64 MiB default without touching every call site.
    mem_bytes: int = 1 << 26
    #: Loop iterations per block of a core's baseline trace, or None where
    #: a core's part must be one block (its ops are not one run per
    #: iteration, as in a two-pass kernel).
    trace_block: int | None = 1 << 16

    def __init__(self, scale: int, seed: int = 0) -> None:
        self.scale = scale
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.mem: HostMemory | None = None

    # ---------------------------------------------------------------- hooks

    @abstractmethod
    def generate(self, mem: HostMemory) -> None:
        """Allocate arrays in ``mem`` and remember their bases."""

    @abstractmethod
    def core_trace(self, part) -> Trace:
        """The legacy code's trace over the loop iterations ``part`` (a
        slice of one core's part), op indices counted from its first op."""

    def trace_parts(self, cores: int) -> list:
        """Each core's loop iterations, OpenMP ``schedule(static)``; one
        core's where the kernel cannot run in parallel."""
        return split_static(range(self.scale),
                            1 if self.single_core_baseline else cores)

    def baseline_traces(self, cores: int) -> list[Trace | BlockTrace]:
        """Per-core traces of the legacy code.  A core's part of one
        :attr:`trace_block` is its :meth:`core_trace`; a longer part is a
        :class:`BlockTrace` whose first block is built here and the rest
        when the core reaches them."""
        traces: list[Trace | BlockTrace] = []
        for part in self.trace_parts(cores):
            step = self.trace_block or len(part)
            if len(part) <= step:
                traces.append(self.core_trace(part))
            else:
                traces.append(BlockTrace(
                    [part[lo:lo + step] for lo in range(0, len(part), step)],
                    self.core_trace))
        return traces

    @abstractmethod
    def dx100_schedule(self, config: DX100Config, cores: int) -> list:
        """DX100 program items + CoreWork for the offloaded code."""

    @abstractmethod
    def expected(self) -> dict[str, Reference]:
        """Final expected contents of mutated arrays (or packed outputs).
        Workloads with paper-scale arrays give slice functions, built
        from their own inputs (:func:`last_writer`, :func:`key_counts`)."""

    def dmp_streams(self) -> dict[int, DMPStream]:
        """pc -> the unconditional indirect target stream, for the DMP
        run."""
        return {}

    def non_roi_instructions(self) -> float:
        """Instructions outside the offloaded region of interest (input
        generation, setup) — identical in every configuration.  The paper's
        Figure 11(a) counts whole-execution instructions, so this floor is
        what keeps fully-offloaded kernels' reduction ratios finite."""
        return 4.0 * self.scale

    # -------------------------------------------------------------- utility

    def validate(self, mem: HostMemory) -> None:
        """Assert the inputs are unchanged, then that the post-run memory
        matches the NumPy reference, every element of every checked array,
        one :data:`VALIDATE_SLICE` at a time.  The references read the
        inputs' live views, so the input check comes first."""
        changed = mem.changed_inputs()
        if changed:
            raise AssertionError(
                f"{self.name}: input segment(s) {changed} changed since "
                f"they were placed")
        for name, expect in self.expected().items():
            got = mem.view(name)
            if callable(expect):
                part = expect
            elif len(expect) == len(got):
                part = lambda lo, hi, whole=expect: whole[lo:hi]
            else:
                raise AssertionError(
                    f"{self.name}: array {name!r} has {len(got)} elements, "
                    f"the reference {len(expect)}")
            bad = 0
            for lo in range(0, len(got), VALIDATE_SLICE):
                hi = min(lo + VALIDATE_SLICE, len(got))
                want = part(lo, hi)
                if want.shape != (hi - lo,):
                    raise AssertionError(
                        f"{self.name}: reference slice [{lo}, {hi}) of "
                        f"{name!r} has shape {want.shape}")
                bad += int(np.count_nonzero(got[lo:hi] != want))
                del want    # before the next slice's reference is built
            if bad:
                raise AssertionError(
                    f"{self.name}: array {name!r} diverges from the "
                    f"reference in {bad}/{len(got)} elements"
                )

    def validate_dx(self, records, mem: HostMemory) -> None:
        """Full DX100-run validation: memory state plus any gathered tiles
        registered with :meth:`expect_gather` (for load-only kernels whose
        results live in the scratchpad rather than memory).  ``records``
        holds every instance's instruction records in program order."""
        self.validate(mem)
        for record_index, expect in getattr(self, "_gather_checks", []):
            record = records[record_index]
            got = record.detail.values
            if not np.array_equal(np.asarray(got), np.asarray(expect)):
                raise AssertionError(
                    f"{self.name}: gathered tile of instruction "
                    f"{record_index} diverges from the reference"
                )

    def expect_gather(self, instr_index: int, values: np.ndarray) -> None:
        """Register the expected contents of instruction ``instr_index``'s
        gathered tile (index counts Instr items in schedule order)."""
        if not hasattr(self, "_gather_checks"):
            self._gather_checks = []
        self._gather_checks.append((instr_index, np.asarray(values)))

    def _remember(self, mem: HostMemory) -> None:
        self.mem = mem


def _keys_in(keys: np.ndarray, lo: int,
             hi: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(positions, keys - lo)`` of the keys in ``[lo, hi)``, in program
    order.  ``keys`` is scanned an eighth of a slice at a time, so one
    step's temporaries stay under a slice of int64 together."""
    step = VALIDATE_SLICE // 8
    for start in range(0, len(keys), step):
        part = keys[start:start + step]
        pos = np.flatnonzero((part >= lo) & (part < hi))
        yield start + pos, part[pos] - lo


def last_writer(indices: np.ndarray,
                values: np.ndarray) -> Callable[[int, int], np.ndarray]:
    """The slice reference of a zeroed array after ``A[indices[i]] =
    values[i]`` for every ``i`` in order: the last writer wins."""
    def part(lo: int, hi: int) -> np.ndarray:
        out = np.zeros(hi - lo, dtype=values.dtype)
        for pos, at in _keys_in(indices, lo, hi):
            out[at] = values[pos]
        return out
    return part


def key_counts(keys: np.ndarray,
               dtype) -> Callable[[int, int], np.ndarray]:
    """The slice reference of ``count[keys[i]] += 1`` over a zeroed
    ``dtype`` array."""
    def part(lo: int, hi: int) -> np.ndarray:
        out = np.zeros(hi - lo, dtype=dtype)
        for _, at in _keys_in(keys, lo, hi):
            np.add.at(out, at, 1)
        return out
    return part


def expand_ranges(lo: np.ndarray,
                  hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten ``for k: for j in range(lo[k], hi[k])``: the outer index
    ``k`` and the value ``j`` of every inner iteration, in loop order."""
    counts = hi - lo
    owner = np.repeat(np.arange(len(lo)), counts)
    first = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) + (lo - first)[owner]


def nest_positions(items: int, owner: np.ndarray, head: int, body,
                   tail: int = 0) -> tuple[np.ndarray, np.ndarray, int]:
    """Where a two-level loop nest's ops land in program order.

    Outer item ``k`` emits ``head`` ops, then ``body[e]`` ops for each
    inner iteration ``e`` it owns (``owner`` as from :func:`expand_ranges`),
    then ``tail`` ops.  Returns each item's first op position, each inner
    iteration's first op position and the nest's op count."""
    body = np.broadcast_to(np.asarray(body, dtype=np.int64), owner.shape)
    before = np.zeros(len(owner) + 1, dtype=np.int64)
    np.cumsum(body, out=before[1:])
    step = head + tail
    first = np.searchsorted(owner, np.arange(items))
    item_at = step * np.arange(items) + before[first]
    inner_at = step * owner + head + before[:-1]
    return item_at, inner_at, step * items + int(before[-1])


def chunk_bounds(n: int, tile: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + tile, n)) for lo in range(0, n, tile)]
