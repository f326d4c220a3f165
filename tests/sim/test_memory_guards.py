"""Guards on what a run holds in memory.

* The batched core keeps a missed op's DRAM request only while the op is
  pending.  Once a run has retired every op, the live requests are those
  the MSHR files still point at, so they number at most the LLC MSHR
  capacity however many requests the run made.
* A DMP target stream is held once, packed at 8 bytes per target, and
  registering it builds no full-length temporary.
"""

import gc
import random
import tracemalloc

import numpy as np

from repro.common import SystemConfig
from repro.common.types import DRAMRequest
from repro.core.trace import TraceBuilder
from repro.sim.system import SimSystem


def _live_requests() -> int:
    gc.collect()
    return sum(isinstance(obj, DRAMRequest) for obj in gc.get_objects())


def test_batched_run_keeps_no_request_of_a_retired_op():
    system = SimSystem(SystemConfig.baseline(4))
    assert system.config.frontend == "batched"
    rng = random.Random(0)
    traces = []
    for _ in range(4):
        tb = TraceBuilder()
        prev = None
        for i in range(3000):
            deps = (prev,) if prev is not None and i % 3 == 0 else ()
            prev = tb.load(rng.randrange(1 << 26) & ~63, deps=deps, extra=2)
        traces.append(tb.finish())
    system.multicore.run(traces)
    made = system.dram.merged_stats().get("requests")
    capacity = system.hierarchy.llc_mshr.capacity
    assert made > 10 * capacity   # far more than the bound below
    assert _live_requests() <= capacity


def test_dmp_stream_registration_holds_8_bytes_per_target():
    system = SimSystem(SystemConfig.dmp_system(2))
    n = 1 << 20
    addrs = np.arange(n, dtype=np.int64) * 4104
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        system.dmp.register_stream(7, addrs)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    limit = 10 << 20
    assert after - before < limit, (after - before) / 2**20
    assert peak - before < limit, (peak - before) / 2**20
    # The packed stream holds the line addresses, and the PC filter the
    # batched walk reads sees the registration.
    lines = system.dmp._lines[7]
    assert len(lines) == n
    assert lines[1] == 4104 & ~63 and lines[n - 1] == ((n - 1) * 4104) & ~63
    assert 7 in system.hierarchy.observer_pc_filter
