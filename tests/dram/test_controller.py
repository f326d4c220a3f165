"""Memory controller scheduling, reordering window, and statistics."""

import inspect

import pytest

from repro.common import DRAMConfig, DRAMRequest
from repro.dram import AddressMapper, MemoryController
from repro.dram.batched import BatchedController


@pytest.fixture()
def single_channel():
    cfg = DRAMConfig(channels=1)
    mapper = AddressMapper(cfg)
    return cfg, mapper, MemoryController(0, cfg, mapper)


def _addr(mapper, **kw):
    return mapper.compose(**kw)


def test_requests_complete_in_row_hit_order(single_channel):
    cfg, mapper, ctrl = single_channel
    # Two rows in the same bank, interleaved arrival order A B A B.
    a0 = _addr(mapper, row=1, column=0)
    b0 = _addr(mapper, row=2, column=0)
    a1 = _addr(mapper, row=1, column=1)
    b1 = _addr(mapper, row=2, column=1)
    reqs = [DRAMRequest(x, False, arrival=i) for i, x in enumerate([a0, b0, a1, b1])]
    for r in reqs:
        ctrl.enqueue(r)
    order = []
    while (done := ctrl.service_one()) is not None:
        order.append(done.addr)
    # FR-FCFS services a0 then the row-hit a1 before switching to row 2.
    assert order == [a0, a1, b0, b1]
    assert ctrl.stats.get("row_hits") == 2


def test_fcfs_does_not_reorder(single_channel):
    cfg, mapper, _ = single_channel
    cfg_fcfs = DRAMConfig(channels=1, scheduler="fcfs")
    ctrl = MemoryController(0, cfg_fcfs, AddressMapper(cfg_fcfs))
    addrs = [_addr(AddressMapper(cfg_fcfs), row=r, column=0) for r in (1, 2, 1, 2)]
    reqs = [DRAMRequest(a, False, arrival=i) for i, a in enumerate(addrs)]
    for r in reqs:
        ctrl.enqueue(r)
    order = []
    while (done := ctrl.service_one()) is not None:
        order.append(done.addr)
    assert order == addrs
    assert ctrl.stats.get("row_hits") == 0


def test_row_hit_is_faster_than_conflict(single_channel):
    cfg, mapper, ctrl = single_channel
    t = cfg.timing
    first = DRAMRequest(_addr(mapper, row=1, column=0), False, arrival=0)
    hit = DRAMRequest(_addr(mapper, row=1, column=1), False, arrival=0)
    ctrl.enqueue(first)
    ctrl.enqueue(hit)
    ctrl.drain()
    assert hit.start - first.start == t.tCCD_L  # same bankgroup back-to-back
    # A conflict to another row pays PRE + ACT + RCD.
    ctrl2 = MemoryController(0, cfg, mapper)
    first2 = DRAMRequest(_addr(mapper, row=1, column=0), False, arrival=0)
    conflict = DRAMRequest(_addr(mapper, row=2, column=0), False, arrival=0)
    ctrl2.enqueue(first2)
    ctrl2.enqueue(conflict)
    ctrl2.drain()
    assert conflict.start - first2.start >= t.tRTP + t.tRP + t.tRCD


def test_reordering_window_is_bounded(single_channel):
    cfg, mapper, ctrl = single_channel
    # 33 requests to row 2 arrive before 1 request to row 1; with a 32-entry
    # buffer the row-1 request enters the window only after a slot frees.
    far = [DRAMRequest(_addr(mapper, row=2, column=c), False, arrival=0)
           for c in range(33)]
    near = DRAMRequest(_addr(mapper, row=1, column=0), False, arrival=0)
    for r in far:
        ctrl.enqueue(r)
    ctrl.enqueue(near)
    ctrl.drain()
    assert near.finish > far[0].finish


def test_service_until_done_and_errors(single_channel):
    cfg, mapper, ctrl = single_channel
    req = DRAMRequest(_addr(mapper, row=3, column=3), False, arrival=5)
    ctrl.enqueue(req)
    ctrl.service_until_done(req)
    assert req.done and req.finish > req.arrival
    stray = DRAMRequest(_addr(mapper, row=4, column=0), False, arrival=0)
    with pytest.raises(RuntimeError):
        ctrl.service_until_done(stray)


def test_wrong_channel_rejected():
    cfg = DRAMConfig()  # 2 channels
    mapper = AddressMapper(cfg)
    ch1_addr = mapper.compose(channel=1, row=1)
    for engine in (MemoryController, BatchedController):
        ctrl = engine(0, cfg, mapper)
        with pytest.raises(ValueError):
            ctrl.enqueue(DRAMRequest(ch1_addr, False, arrival=0))


def _public_methods(cls) -> dict[str, list[str]]:
    return {name: list(inspect.signature(fn).parameters)
            for name, fn in vars(cls).items()
            if callable(fn) and not name.startswith("_")}


def test_engines_expose_the_same_methods():
    """The batched engine stands in for the scalar oracle wherever a
    ``DRAMSystem`` holds a controller: the same public methods, each with
    the same parameter names, and four ways in for a request."""
    scalar = _public_methods(MemoryController)
    assert scalar == _public_methods(BatchedController)
    assert {name for name in scalar if name.startswith("enqueue")} == {
        "enqueue", "enqueue_decoded", "enqueue_line", "enqueue_lines"}


def test_occupancy_statistic_tracks_buffer(single_channel):
    cfg, mapper, ctrl = single_channel
    for c in range(16):
        ctrl.enqueue(DRAMRequest(_addr(mapper, row=1, column=c), False, 0))
    ctrl.drain()
    occ = ctrl.mean_occupancy()
    assert 0 < occ <= cfg.request_buffer


def test_idle_gap_advances_time(single_channel):
    cfg, mapper, ctrl = single_channel
    early = DRAMRequest(_addr(mapper, row=1, column=0), False, arrival=0)
    late = DRAMRequest(_addr(mapper, row=1, column=1), False, arrival=100_000)
    ctrl.enqueue(early)
    ctrl.enqueue(late)
    ctrl.drain()
    assert late.start >= 100_000
    assert early.finish < 100_000


def test_writes_update_write_stats(single_channel):
    cfg, mapper, ctrl = single_channel
    ctrl.enqueue(DRAMRequest(_addr(mapper, row=1, column=0), True, arrival=0))
    ctrl.drain()
    assert ctrl.stats.get("writes") == 1
    assert ctrl.stats.get("bytes") == 64

