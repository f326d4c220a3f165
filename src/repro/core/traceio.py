"""Trace serialization: save and replay per-core memory-op traces.

Workload trace generation costs real time at large scales; exporting the
generated traces to ``.npz`` lets sweeps replay identical inputs across
configurations (and lets external tools consume them).  Each trace column
becomes one array; dependence edges are stored flattened with an offsets
array, CSR-style.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.common.types import AccessType
from repro.core.trace import Trace

_KIND_CODES = {AccessType.LOAD: 0, AccessType.STORE: 1, AccessType.RMW: 2}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}


def save_traces(path: str | Path, traces: list[Trace]) -> None:
    """Serialize per-core traces to a single ``.npz`` file."""
    payload: dict[str, np.ndarray] = {
        "n_traces": np.array([len(traces)], dtype=np.int64),
    }
    for t, trace in enumerate(traces):
        payload[f"t{t}_kind"] = np.array(
            [_KIND_CODES[kind] for kind in trace.kind], dtype=np.int8)
        payload[f"t{t}_addr"] = np.array(trace.addr, dtype=np.int64)
        payload[f"t{t}_size"] = np.array(trace.size, dtype=np.int16)
        payload[f"t{t}_extra"] = np.array(trace.extra, dtype=np.int32)
        payload[f"t{t}_atomic"] = np.array(trace.atomic, dtype=np.int8)
        payload[f"t{t}_pc"] = np.array(trace.pc, dtype=np.int32)
        payload[f"t{t}_tag"] = np.array(trace.tag, dtype=np.int64)
        offsets = np.zeros(len(trace) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum([len(deps) for deps in trace.deps])
        payload[f"t{t}_deps"] = np.array(
            [d for deps in trace.deps for d in deps], dtype=np.int64)
        payload[f"t{t}_dep_offsets"] = offsets
        payload[f"t{t}_tail"] = np.array([trace.tail_instrs],
                                         dtype=np.int64)
    np.savez_compressed(path, **payload)


def load_traces(path: str | Path) -> list[Trace]:
    """Reload traces saved with :func:`save_traces`.

    Raises ``ValueError`` if an op depends on an op that does not come
    before it, as :class:`~repro.core.trace.TraceBuilder` would."""
    data = np.load(path)
    n = int(data["n_traces"][0])
    traces = []
    for t in range(n):
        deps = data[f"t{t}_deps"]
        offs = data[f"t{t}_dep_offsets"]
        owners = np.repeat(np.arange(len(offs) - 1), np.diff(offs))
        bad = (deps < 0) | (deps >= owners)
        if bad.any():
            raise ValueError(
                f"trace {t}: dependence on unknown op "
                f"{int(deps[np.argmax(bad)])}")
        dep_list = deps.tolist()
        bounds = offs.tolist()
        traces.append(Trace(
            kind=[_CODE_KINDS[code] for code in data[f"t{t}_kind"].tolist()],
            addr=data[f"t{t}_addr"].tolist(),
            size=data[f"t{t}_size"].tolist(),
            deps=[tuple(dep_list[lo:hi])
                  for lo, hi in zip(bounds, bounds[1:])],
            extra=data[f"t{t}_extra"].tolist(),
            atomic=[bool(a) for a in data[f"t{t}_atomic"].tolist()],
            pc=data[f"t{t}_pc"].tolist(),
            tag=data[f"t{t}_tag"].tolist(),
            tail_instrs=int(data[f"t{t}_tail"][0]),
        ))
    return traces
