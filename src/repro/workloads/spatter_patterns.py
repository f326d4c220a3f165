"""Spatter-style pattern specifications.

The Spatter benchmark (Lavin et al., MEMSYS 2020) describes gather/scatter
kernels as JSON objects: a ``kernel`` (gather/scatter), a ``pattern`` (a
base index sequence), a ``delta`` applied between repetitions, and a
``count``.  The paper drives Spatter with a pattern collected from xRAGE
(Sheridan et al. 2024); this module implements the spec format so custom
patterns — including published Spatter JSON — run through the same
workload machinery.

Supported spec keys (anything else is ignored):

* ``kernel``   — "gather" or "scatter";
* ``pattern``  — list of integers, or the string shorthands
  ``"UNIFORM:N:S"`` (N indices with stride S) and ``"MS1:N:B"``
  (mostly-stride-1: N indices in runs of B at random starts);
* ``delta``    — index offset added between repetitions (default: the
  pattern span, giving non-overlapping windows);
* ``count``    — number of repetitions.
"""

from __future__ import annotations

import json

import numpy as np

from repro.common.config import DX100Config
from repro.common.types import DType
from repro.core.trace import Trace, TraceBuilder
from repro.dx100.api import ProgramBuilder
from repro.dx100.hostmem import HostMemory
from repro.workloads.base import (
    BASE_ADDR_CALC, PC_INDEX, PC_INDIRECT, PC_OUTPUT, PC_VALUE, DMPStream,
    Reference, Workload, chunk_bounds, last_writer,
)


def parse_pattern(spec, rng=None) -> np.ndarray:
    """Expand a Spatter ``pattern`` entry to a base index array."""
    if isinstance(spec, str):
        parts = spec.split(":")
        kind = parts[0].upper()
        if kind == "UNIFORM":
            if len(parts) != 3:
                raise ValueError("UNIFORM takes N:S")
            n, stride = int(parts[1]), int(parts[2])
            return np.arange(n, dtype=np.int64) * stride
        if kind == "MS1":
            if len(parts) != 3:
                raise ValueError("MS1 takes N:B")
            n, block = int(parts[1]), int(parts[2])
            rng = rng or np.random.default_rng(0)
            starts = rng.integers(0, max(1, 8 * n), -(-n // block))
            runs = [np.arange(s, s + block) for s in starts]
            return np.concatenate(runs)[:n].astype(np.int64)
        raise ValueError(f"unknown pattern shorthand {kind!r}")
    pattern = np.asarray(spec, dtype=np.int64)
    if pattern.ndim != 1 or len(pattern) == 0:
        raise ValueError("pattern must be a non-empty 1-D index list")
    if (pattern < 0).any():
        raise ValueError("pattern indices must be non-negative")
    return pattern


def expand_spec(spec: dict | str, rng=None) -> tuple[str, np.ndarray]:
    """Expand a full Spatter spec to (kernel, index array)."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    kernel = str(spec.get("kernel", "gather")).lower()
    if kernel not in ("gather", "scatter"):
        raise ValueError(f"unsupported kernel {kernel!r}")
    base = parse_pattern(spec["pattern"], rng)
    count = int(spec.get("count", 1))
    if count <= 0:
        raise ValueError("count must be positive")
    delta = int(spec.get("delta", int(base.max()) + 1))
    reps = [base + k * delta for k in range(count)]
    return kernel, np.concatenate(reps)


class SpatterKernel(Workload):
    """A runnable workload built from a Spatter JSON spec."""

    suite = "Spatter"

    def __init__(self, spec: dict | str, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.kernel, self.indices = expand_spec(spec, rng)
        self.span = int(self.indices.max()) + 1
        super().__init__(scale=len(self.indices), seed=seed)
        self.name = f"spatter-{self.kernel}"
        self.pattern = (f"{'ST' if self.kernel == 'scatter' else 'LD'} "
                        f"A[B[i]], i = F to G (Spatter spec)")

    # ------------------------------------------------------------- data

    def generate(self, mem: HostMemory) -> None:
        self._remember(mem)
        a = self.rng.integers(0, 1 << 30, self.span, dtype=np.int64)
        values = self.rng.integers(0, 1 << 20, self.scale, dtype=np.int64)
        # The gather reads A and writes C; the scatter the reverse.
        if self.kernel == "gather":
            self.a_base, self.a = mem.place_input("A", a)
        else:
            self.a_base = mem.place("A", np.zeros(self.span, np.int64))
        self.b_base, self.indices = mem.place_input("B", self.indices)
        if self.kernel == "scatter":
            self.c_base, self.values = mem.place_input("C", values)
        else:
            self.c_base = mem.place("C", np.zeros(self.scale, np.int64))

    # -------------------------------------------------------------- traces

    def core_trace(self, part) -> Trace:
        tb = TraceBuilder()
        for i in part:
            idx = tb.load(self.b_base + 8 * i, pc=PC_INDEX, extra=1,
                          tag=i)
            target = self.a_base + 8 * int(self.indices[i])
            if self.kernel == "gather":
                val = tb.load(target, deps=(idx,), pc=PC_INDIRECT,
                              extra=BASE_ADDR_CALC, tag=i)
                tb.store(self.c_base + 8 * i, deps=(val,),
                         pc=PC_OUTPUT, extra=2)
            else:
                val = tb.load(self.c_base + 8 * i, pc=PC_VALUE, extra=1)
                tb.store(target, deps=(idx, val), pc=PC_INDIRECT,
                         extra=BASE_ADDR_CALC, tag=i)
        return tb.finish()

    def dx100_schedule(self, config: DX100Config, cores: int) -> list:
        items: list = []
        for lo, hi in chunk_bounds(self.scale, config.tile_elems):
            pb = ProgramBuilder(config)
            t_b = pb.sld(DType.I64, self.b_base, lo, hi)
            if self.kernel == "gather":
                t_p = pb.ild(DType.I64, self.a_base, t_b)
                pb.sst(DType.I64, self.c_base, t_p, lo, hi)
                pb.wait(t_p)
            else:
                t_c = pb.sld(DType.I64, self.c_base, lo, hi)
                pb.ist(DType.I64, self.a_base, t_b, t_c)
                pb.wait(t_b, t_c)
            items += pb.build()
        return items

    # ---------------------------------------------------------- validation

    def expected(self) -> dict[str, Reference]:
        if self.kernel == "gather":
            return {"C": self.a[self.indices]}
        return {"A": last_writer(self.indices, self.values)}

    def dmp_streams(self) -> dict[int, DMPStream]:
        return {PC_INDIRECT: (self.a_base, 8, self.indices)}
