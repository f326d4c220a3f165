"""Guards on what a run holds in memory.

* A baseline run holds its trace one block of iterations and one list
  slice per core at a time: its trace memory is bounded by the block and
  slice sizes, not by the op count.
* The batched core keeps a missed op's DRAM request only while the op is
  pending.  Once a run has retired every op, the live requests are those
  the MSHR files still point at, so they number at most the LLC MSHR
  capacity however many requests the run made.
* A DMP target stream is read in place from the workload's index array:
  registering it copies nothing and allocates only the issued bitmap,
  one bit per target.
"""

import gc
import random
import tracemalloc

import numpy as np

from repro.common import HitLevel, SystemConfig
from repro.common.types import DRAMRequest
from repro.core.batched import BatchedMulticore
from repro.core.trace import TraceBuilder
from repro.dx100 import HostMemory
from repro.sim.system import SimSystem
from repro.workloads import MAIN_BENCHMARKS, IntegerSort


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


def test_dmp_stream_registration_allocates_under_64_kib():
    system = SimSystem(SystemConfig.dmp_system(2))
    n = 1 << 18
    index = np.arange(n, dtype=np.int64)     # 2 MB: a copy would show
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        system.dmp.register_stream(7, index, base=1 << 20, scale=4104)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    limit = 64 << 10
    assert after - before < limit, after - before
    assert peak - before < limit, peak - before
    # The stream reads the caller's array, and the PC filter the batched
    # walk reads sees the registration.
    base, scale, view, count = system.dmp._streams[7]
    assert view.obj is index and count == n
    assert ((base + scale * view[n - 1]) & ~63
            == ((1 << 20) + (n - 1) * 4104) & ~63)
    assert 7 in system.hierarchy.observer_pc_filter


class _AllHits:
    """A memory system in which every access hits after one cycle, so a
    run on it allocates nothing outside the cores and their traces."""

    complete = None

    def access(self, core, addr, is_write, t, pc, tag):
        return HitLevel.L1, t, t + 1, None, 0


def _trace_peak(workload, block: int) -> tuple[int, float]:
    """Peak traced bytes of building ``workload``'s 4-core baseline
    traces in blocks of ``block`` iterations and running them, and the
    run's op count."""
    workload.trace_block = block
    workload.generate(HostMemory(workload.mem_bytes))
    config = SystemConfig.baseline(4)
    cores = BatchedMulticore(config, _AllHits(), _AllHits())
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        cores.run(workload.baseline_traces(4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before, cores.merged_stats().get("ops")


def test_baseline_run_trace_memory_is_bounded_by_block_and_slice(
        monkeypatch):
    """Main-scale IS (65,536 ops) in blocks of 64 iterations (128 ops),
    read in slices of 128 ops: the run's trace memory stays under a
    budget of 300 bytes per slice or window op per core and 200 per op of
    the blocks alive (each core's first and current one, and one being
    built), which is a fraction of the packed whole trace."""
    slice_ops, block = 128, 64
    monkeypatch.setattr("repro.core.trace.SLICE", slice_ops)
    # Warm up: the first run imports and caches what later runs reuse.
    _trace_peak(IntegerSort(scale=1 << 12, bucket_space=1 << 10), block)
    peak, ops = _trace_peak(MAIN_BENCHMARKS["IS"](), block)
    rob = SystemConfig.baseline(4).core.rob_size
    budget = 4 * (slice_ops + rob) * 300 + (2 * 4 + 1) * 2 * block * 200
    assert ops == 2 * (1 << 15)
    assert peak < budget, (peak, budget)
    assert budget < 45 * ops / 4       # a quarter of the packed trace
