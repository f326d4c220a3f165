"""Behavioural model of DMP, the differential-matching indirect prefetcher
(Fu et al., HPCA 2024) the paper compares against in Figure 12.

The real DMP watches the core's load stream, differentially matches index
loads (B[i]) against dependent loads (A[B[i]]) to recover base and scale,
then prefetches A[B[i+d]].  At trace granularity we model the *behavioural
consequences* the comparison rests on:

* prefetches target the unconditional future index stream — for kernels
  with conditional accesses (Table 1), untaken iterations are prefetched
  anyway, polluting the cache and spending DRAM bandwidth (Section 6.3);
* coverage is bounded (training misses, page boundaries, late prefetches):
  only ``coverage`` of candidates are issued and timely;
* prefetched lines land in L2/LLC in request order: DMP raises the memory
  access *rate* but leaves request ordering to the memory controller, so
  the row-buffer hit rate stays baseline-like;
* the core's instruction footprint is unchanged.

Workloads register the per-PC unconditional target stream (exactly the
information DMP recovers from the B-stream at runtime) as ``(base, scale,
index)``: target ``it`` is ``base + scale * index[it]``, read in place
from the workload's own index array.  Each demand op carries its
loop-iteration ``tag``.
"""

from __future__ import annotations

from collections.abc import KeysView

import numpy as np

from repro.common.stats import Stats
from repro.cache.hierarchy import MemoryHierarchy


class DMPEngine:
    """Indirect prefetch engine attached to the cache hierarchy."""

    def __init__(self, hierarchy: MemoryHierarchy, distance: int = 64,
                 degree: int = 2, coverage: float = 0.7,
                 train_iters: int = 16) -> None:
        if not 0.0 <= coverage <= 1.0:
            raise ValueError("coverage must be in [0, 1]")
        self.hierarchy = hierarchy
        self.distance = distance
        self.degree = degree
        self.coverage = coverage
        self.train_iters = train_iters
        self.stats = Stats()
        #: Per-PC ``(base, scale, index view, targets)``: ``observe`` runs
        #: on every demand access and reads plain ints from the
        #: memoryview, never numpy scalars.
        self._streams: dict[int, tuple[int, int, memoryview, int]] = {}
        #: Per-PC bitmap, one bit per target: set once it was prefetched.
        self._issued: dict[int, bytearray] = {}
        self._stride = max(1, round(1.0 / coverage)) if coverage > 0 else 0

    @property
    def stream_pcs(self) -> KeysView[int]:
        """Live read-only view of the PCs with a registered stream:
        ``observe`` ignores every access whose PC is not in it."""
        return self._streams.keys()

    def register_stream(self, pc: int, index, base: int = 0,
                        scale: int = 1) -> None:
        """Declare the unconditional indirect target stream for a load PC:
        target ``it`` is the line holding ``base + scale * index[it]``.

        An array ``index`` is read in place, so registration copies
        nothing; the caller must not change it while the engine runs."""
        index = np.asarray(index)
        n = len(index)
        self._streams[pc] = (int(base), int(scale), memoryview(index), n)
        self._issued[pc] = bytearray((n + 7) >> 3)

    def observe(self, core: int, addr: int, pc: int, tag: int,
                t: int) -> None:
        """Called on every demand access; issues lookahead prefetches."""
        stream = self._streams.get(pc)
        if stream is None or tag < 0:
            return
        if tag < self.train_iters:
            return  # differential matching still training
        stride = self._stride
        if stride == 0:
            return
        base, scale, index, n = stream
        start = tag + self.distance
        issued = self._issued[pc]
        counters = self.stats.counters
        partial = self.coverage < 1.0
        for k in range(self.degree):
            it = start + k
            if it >= n:
                continue
            # Deterministic coverage striping instead of RNG.
            if partial and it % stride:
                counters["dmp_dropped"] += 1.0
                continue
            byte, bit = it >> 3, 1 << (it & 7)
            if issued[byte] & bit:
                continue
            issued[byte] |= bit
            counters["dmp_prefetches"] += 1.0
            self.hierarchy.prefetch_into(
                core, (base + scale * index[it]) & ~63, t)

    def accuracy_against(self, taken_tags: dict[int, set[int]]) -> float:
        """Fraction of issued prefetches whose iteration was actually taken
        (diagnostic for the conditional-access pollution effect)."""
        issued = useful = 0
        for pc, bits in self._issued.items():
            its = np.flatnonzero(np.unpackbits(
                np.frombuffer(bits, dtype=np.uint8), bitorder="little"))
            taken = taken_tags.get(pc, set())
            issued += len(its)
            useful += sum(it in taken for it in its.tolist())
        return useful / issued if issued else 1.0
