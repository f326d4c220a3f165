"""Unit tests for the far-memory link model (:mod:`repro.dram.remote`).

Pin the link's cycle-level semantics in isolation — outbound
serialization, the return channel, the queue-depth ring, congestion —
plus the two system-level contracts that ride on it: a disabled link is
bitwise absent, and :meth:`DRAMSystem.bandwidth_utilization` always
normalizes by the *active* config's peak bandwidth when technologies are
swapped mid-suite.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.common.config import (
    CPU_GHZ, DRAMConfig, RemoteLinkConfig, cxl_remote, dram_preset,
    ddr5_6400,
)
from repro.dram import DRAMSystem
from repro.dram.remote import RemoteLink


def _link(**kwargs) -> RemoteLink:
    return RemoteLink(RemoteLinkConfig(enabled=True, **kwargs),
                      line_bytes=64)


# ------------------------------------------------------------- validation

@pytest.mark.parametrize("kwargs", [
    {"placement": "striped"},
    {"latency": -1},
    {"gbps": 0.0},
    {"gbps": -2.5},
    {"queue_depth": 0},
    {"placement": "hash", "far_fraction": 2.0},
    {"placement": "hash", "far_fraction": -0.1},
])
def test_invalid_link_configs_rejected(kwargs):
    """Checked where the config is built, naming the field; an out-of-range
    ``far_fraction`` used to be clamped silently (2.0 meant "all far")."""
    field = list(kwargs)[-1]
    with pytest.raises(ValueError, match=rf"\bRemoteLinkConfig\.{field}\b"):
        RemoteLinkConfig(enabled=True, **kwargs)


# -------------------------------------------------------------- placement

def test_placement_all_and_range():
    assert _link(placement="all").is_far(0)
    ranged = _link(placement="range", far_base=1 << 20)
    assert not ranged.is_far((1 << 20) - 64)
    assert ranged.is_far(1 << 20)


def test_placement_hash_is_deterministic_and_line_granular():
    link = _link(placement="hash", far_fraction=0.5)
    picks = [link.is_far(i * 64) for i in range(4096)]
    assert picks == [link.is_far(i * 64) for i in range(4096)]
    far = sum(picks)
    assert 1000 < far < 3100, "hash split should be near the fraction"
    # Same line, any byte: placement is line-granular.
    assert link.is_far(640) == link.is_far(640 + 63)
    assert all(_link(placement="hash", far_fraction=1.0).is_far(i * 64)
               for i in range(64))
    assert not any(_link(placement="hash", far_fraction=0.0).is_far(i * 64)
                   for i in range(64))


@pytest.mark.parametrize("kwargs", [
    {"placement": "all"},
    {"placement": "range", "far_base": 1 << 28},
    {"placement": "hash", "far_fraction": 0.3},
    {"placement": "hash", "far_fraction": 1.0},
])
def test_far_mask_matches_is_far(kwargs):
    """The array form the DX100 drain path uses places every address as
    the per-request test does, up to line indices whose hash product
    overflows 64 bits."""
    link = _link(**kwargs)
    rng = np.random.default_rng(5)
    addrs = np.concatenate([rng.integers(0, 1 << 40, 3000),
                            np.arange(0, 1 << 30, (1 << 30) // 997),
                            [0, (1 << 28) - 64, 1 << 28, (1 << 62) - 64]])
    addrs = addrs.astype(np.int64) & ~np.int64(63)
    assert link.far_mask(addrs).tolist() == [link.is_far(a)
                                             for a in addrs.tolist()]


# ------------------------------------------------------------- traversal

def test_inject_adds_latency_and_serializes_the_request_channel():
    link = _link(latency=400)
    # First read departs immediately: arrival + latency.
    assert link.inject(100, is_write=False) == 500
    # A read header occupies 1 cycle, so a simultaneous second read
    # departs one cycle later.
    assert link.inject(100, is_write=False) == 501
    counters = link.stats.counters
    assert counters["far_reads"] == 2
    assert counters["link_out_wait"] == 1
    assert counters["far_bytes"] == 128


def test_inject_writes_serialize_the_payload():
    link = _link(latency=0, gbps=32.0)
    data = link.data_cycles
    assert data == -(-int(64 * CPU_GHZ * 1000) // int(32.0 * 1000))
    assert link.inject(0, is_write=True) == 0
    # The payload held the channel for data_cycles.
    assert link.inject(0, is_write=True) == data
    assert link.stats.counters["far_writes"] == 2


def test_deliver_adds_latency_and_serializes_the_return_channel():
    link = _link(latency=400, queue_depth=64)
    data = link.data_cycles
    # First response: payload + propagation.
    assert link.deliver(1000, is_write=False) == 1000 + data + 400
    # Second response finishing at the same cycle queues behind it.
    assert link.deliver(1000, is_write=False) == 1000 + 2 * data + 400
    assert link.stats.counters["far_serviced"] == 2
    assert link.stats.counters["link_ret_wait"] == data
    assert link.transfers == 2
    assert link.mean_return_wait() == data / 2


def test_deliver_queue_depth_ring_bounds_inflight_transfers():
    """With a Q-deep ring, delivery k must wait for delivery k-Q to land:
    a burst of far completions drains at one payload per slot, and the
    (Q+1)-th waits for the first's full round trip."""
    latency, q = 1000, 2
    link = _link(latency=latency, queue_depth=q)
    data = link.data_cycles
    deliveries = [link.deliver(0, is_write=False) for _ in range(4)]
    # First two pipeline on the return channel alone.
    assert deliveries[0] == data + latency
    assert deliveries[1] == 2 * data + latency
    # Third grants only once the first lands (ring slot reuse).
    assert deliveries[2] == deliveries[0] + data + latency
    assert deliveries[3] == deliveries[1] + data + latency
    # A deep ring with the same traffic never hits the bound.
    wide = _link(latency=latency, queue_depth=64)
    free = [wide.deliver(0, is_write=False) for _ in range(4)]
    assert free == [(i + 1) * data + latency for i in range(4)]


def test_congestion_model_adds_occupancy_proportional_delay():
    base = _link(latency=500, queue_depth=4)
    congested = _link(latency=500, queue_depth=4, congestion=True)
    plain = [base.deliver(0, is_write=False) for _ in range(8)]
    slow = [congested.deliver(0, is_write=False) for _ in range(8)]
    assert slow[0] == plain[0]          # empty link: no extra delay
    assert slow[-1] > plain[-1]         # standing queue costs extra
    assert all(s >= p for s, p in zip(slow, plain))


def test_write_acks_are_header_sized():
    link = _link(latency=100)
    data = link.data_cycles
    # A write's ack holds the return channel for 1 cycle, not data_cycles.
    assert link.deliver(0, is_write=True) == 1 + 100
    assert link.deliver(0, is_write=False) == 1 + data + 100


# ---------------------------------------------------------- system contracts

def test_disabled_link_leaves_system_untouched():
    system = DRAMSystem(DRAMConfig(channels=1))
    assert system.remote is None
    assert all(ctrl.remote is None for ctrl in system.controllers)
    req = system.access(4096, False, 0)
    system.drain()
    assert not req.far
    assert "far_serviced" not in system.merged_stats().counters


def test_enabled_link_shifts_far_completions():
    local = DRAMSystem(DRAMConfig(channels=1))
    far = DRAMSystem(replace(cxl_remote(), channels=1))
    assert far.remote is not None
    assert all(ctrl.remote is far.remote for ctrl in far.controllers)
    r_local = local.access(4096, False, 0)
    r_far = far.access(4096, False, 0)
    local.drain()
    far.drain()
    assert r_far.far and not r_local.far
    # Two one-way traversals plus at least one payload serialization.
    min_extra = 2 * far.remote.latency + far.remote.data_cycles
    assert r_far.finish >= r_local.finish + min_extra
    assert far.merged_stats().counters["far_serviced"] == 1


def test_bandwidth_utilization_tracks_the_active_config():
    """Swapping memory technologies mid-suite must swap the utilization
    denominator: identical traffic over identical elapsed cycles yields
    utilizations in exact inverse ratio of the peak bandwidths."""
    results = {}
    for name in ("ddr4", "ddr5"):
        cfg = dram_preset(name)
        system = DRAMSystem(cfg)
        for i in range(64):
            system.access(i * 64, False, 0)
        system.drain()
        results[name] = (system.bandwidth_utilization(10_000),
                         cfg.peak_bw_gbps, system.total_bytes())
    (u4, peak4, bytes4), (u5, peak5, bytes5) = \
        results["ddr4"], results["ddr5"]
    assert bytes4 == bytes5
    assert peak5 > peak4
    assert u4 == pytest.approx(u5 * peak5 / peak4)
    # And the DDR5 run's own denominator really is the DDR5 peak.
    seconds = 10_000 * (1.0 / CPU_GHZ) * 1e-9
    assert u5 == pytest.approx(bytes5 / seconds / 1e9 / peak5)
    # Guard the preset ordering assumption explicitly too.
    assert ddr5_6400().peak_bw_gbps == peak5
