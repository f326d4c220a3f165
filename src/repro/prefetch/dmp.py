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

Workloads register the per-PC unconditional target-address stream (exactly
the information DMP recovers from the B-stream at runtime), and each demand
op carries its loop-iteration ``tag``.
"""

from __future__ import annotations

from array import array
from collections.abc import KeysView

import numpy as np

from repro.common.stats import Stats
from repro.cache.hierarchy import MemoryHierarchy

#: Targets masked per step of :meth:`DMPEngine.register_stream`.
REGISTER_SLICE = 1 << 16


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
        #: Per-PC target stream pre-masked to line addresses, packed 8 B
        #: per target: ``observe`` runs on every demand access and reads
        #: plain ints from it, never numpy scalars.
        self._lines: dict[int, array[int]] = {}
        self._issued: dict[int, set[int]] = {}
        self._stride = max(1, round(1.0 / coverage)) if coverage > 0 else 0

    @property
    def stream_pcs(self) -> KeysView[int]:
        """Live read-only view of the PCs with a registered stream:
        ``observe`` ignores every access whose PC is not in it."""
        return self._lines.keys()

    def register_stream(self, pc: int, target_addrs) -> None:
        """Declare the unconditional indirect target stream for a load PC.

        The line addresses are written into the packed stream one
        ``REGISTER_SLICE`` at a time, so registration holds at most the
        caller's addresses, the stream and one slice."""
        n = len(target_addrs)
        lines = array("q", [0]) * n
        out = np.frombuffer(lines, dtype=np.int64)
        for lo in range(0, n, REGISTER_SLICE):
            hi = lo + REGISTER_SLICE
            np.bitwise_and(np.asarray(target_addrs[lo:hi], dtype=np.int64),
                           ~63, out=out[lo:hi])
        self._lines[pc] = lines
        self._issued[pc] = set()

    def observe(self, core: int, addr: int, pc: int, tag: int,
                t: int) -> None:
        """Called on every demand access; issues lookahead prefetches."""
        lines = self._lines.get(pc)
        if lines is None or tag < 0:
            return
        if tag < self.train_iters:
            return  # differential matching still training
        stride = self._stride
        if stride == 0:
            return
        start = tag + self.distance
        n = len(lines)
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
            if it in issued:
                continue
            issued.add(it)
            counters["dmp_prefetches"] += 1.0
            self.hierarchy.prefetch_into(core, lines[it], t)

    def accuracy_against(self, taken_tags: dict[int, set[int]]) -> float:
        """Fraction of issued prefetches whose iteration was actually taken
        (diagnostic for the conditional-access pollution effect)."""
        issued = useful = 0
        for pc, its in self._issued.items():
            taken = taken_tags.get(pc, set())
            issued += len(its)
            useful += len(its & taken)
        return useful / issued if issued else 1.0
