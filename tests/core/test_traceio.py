"""Trace save/load round trips."""

import numpy as np
import pytest

from repro.common import SystemConfig
from repro.core.trace import TraceBuilder
from repro.core.traceio import load_traces, save_traces
from repro.dx100 import HostMemory
from repro.sim.system import SimSystem
from repro.workloads import IntegerSort


def test_round_trip_preserves_everything(tmp_path):
    wl = IntegerSort(scale=512, bucket_space=1 << 14)
    wl.generate(HostMemory(1 << 22))
    traces = wl.baseline_traces(4)
    path = tmp_path / "traces.npz"
    save_traces(path, traces)
    loaded = load_traces(path)
    assert len(loaded) == len(traces)
    for orig, back in zip(traces, loaded):
        assert len(orig) == len(back)
        assert orig.instructions == back.instructions
        assert orig == back     # every column and the tail, exactly


def test_replayed_trace_times_identically(tmp_path):
    wl = IntegerSort(scale=512, bucket_space=1 << 14)
    wl.generate(HostMemory(1 << 22))
    traces = wl.baseline_traces(4)
    path = tmp_path / "traces.npz"
    save_traces(path, traces)

    def run(trs):
        system = SimSystem(SystemConfig.baseline_scaled())
        return system.multicore.run(trs)

    assert run(traces) == run(load_traces(path))


def test_empty_trace_list(tmp_path):
    path = tmp_path / "empty.npz"
    save_traces(path, [])
    assert load_traces(path) == []


def _small_trace():
    tb = TraceBuilder()
    i = tb.load(0x1000, pc=3, tag=0, extra=2)
    tb.rmw(0x2000, size=4, deps=(i,), atomic=True, pc=4, tag=0)
    tb.store(0x3000, deps=(0, 1), pc=5, tag=1)
    tb.compute(7)
    return tb.finish()


def test_npz_keys_and_dtypes_are_pinned(tmp_path):
    """The file format external tools read: one array per column, CSR
    dependence edges, and these exact dtypes."""
    path = tmp_path / "one.npz"
    save_traces(path, [_small_trace()])
    data = np.load(path)
    dtypes = {key: data[key].dtype for key in data.files}
    assert dtypes == {
        "n_traces": np.int64, "t0_kind": np.int8, "t0_addr": np.int64,
        "t0_size": np.int16, "t0_extra": np.int32, "t0_atomic": np.int8,
        "t0_pc": np.int32, "t0_tag": np.int64, "t0_deps": np.int64,
        "t0_dep_offsets": np.int64, "t0_tail": np.int64,
    }
    assert data["t0_kind"].tolist() == [0, 2, 1]
    assert data["t0_deps"].tolist() == [0, 0, 1]
    assert data["t0_dep_offsets"].tolist() == [0, 0, 1, 3]
    assert data["t0_tail"].tolist() == [7]
    assert load_traces(path) == [_small_trace()]


def test_forward_dependence_in_file_rejected(tmp_path):
    path = tmp_path / "bad.npz"
    save_traces(path, [_small_trace()])
    data = dict(np.load(path))
    data["t0_deps"] = np.array([0, 2, 1], dtype=np.int64)  # op 2 -> op 2
    np.savez_compressed(path, **data)
    with pytest.raises(ValueError, match="unknown op 2"):
        load_traces(path)
