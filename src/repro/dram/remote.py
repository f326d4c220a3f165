"""The far-memory link front-end (CXL/RDMA-style expander port).

One :class:`RemoteLink` instance models the serial link between the
processor die and a far memory pool.  It is shared by every channel of a
:class:`~repro.dram.system.DRAMSystem` (one physical port) and by both
DRAM engines — the scalar oracle and the batched engine hold a reference
to the *same* object and call it at the same two points, which is what
keeps them bitwise identical with the link enabled:

* **inject** — at system enqueue, a far request's arrival is shifted by
  the outbound traversal: wait for the request channel (reads send a
  header, writes serialize the 64B payload), then one-way propagation.
  Enqueue order is engine-independent, so the outbound cursor advances
  identically under either engine.
* **deliver** — where each engine assigns ``req.finish``, a far request's
  completion is shifted by the return traversal: wait for the data
  channel, respect the ``queue_depth`` read-return ring (at most Q line
  transfers in flight), serialize the payload, then propagate back.
  Both engines service requests in the same order (the differential
  guarantee), so the shared return cursor and ring evolve identically.

The far pool's media reuses the local DRAM timing model — the link is
purely additive latency/bandwidth/queueing.  What is *not* modeled:
coherence traffic, link-layer retry, asymmetric read/write lanes, and
far-side controller contention separate from the local one (the Tiara
and CXL-index papers' regime is captured by latency + bandwidth + queue
depth alone).  See ``docs/MODEL.md`` section "Far-memory tier" for the
full framing.
"""

from __future__ import annotations

import numpy as np

from repro.common.config import CPU_GHZ, RemoteLinkConfig
from repro.common.stats import Stats

#: Multiplicative hash (Knuth) for the deterministic line-interleave
#: placement; any fixed odd constant works, this one mixes low bits well.
_HASH_MULT = 2654435761
_HASH_MOD = 1 << 32


class RemoteLink:
    """Latency/bandwidth/queue-depth model of one far-memory link."""

    __slots__ = (
        "config", "latency", "data_cycles", "queue_depth", "congestion",
        "_placement", "_far_base", "_threshold", "_line_bytes",
        "_out_free", "_ret_free", "_ring", "_count", "stats", "obs",
    )

    def __init__(self, config: RemoteLinkConfig, line_bytes: int) -> None:
        self.config = config
        self.latency = int(config.latency)
        # Cycles one 64B payload occupies the serial link: bytes per CPU
        # cycle at `gbps` GB/s is gbps / CPU_GHZ, so ceil(line / that).
        self.data_cycles = max(
            1, -(-int(line_bytes * CPU_GHZ * 1000)
                 // int(config.gbps * 1000)))
        self.queue_depth = int(config.queue_depth)
        self.congestion = bool(config.congestion)
        self._placement = config.placement
        self._far_base = int(config.far_base)
        self._threshold = int(config.far_fraction * _HASH_MOD)
        self._line_bytes = int(line_bytes)
        # Link state: next-free cycle of each direction's serial channel,
        # plus a ring of the last `queue_depth` return-delivery completion
        # cycles (the read-return buffer bound).
        self._out_free = 0
        self._ret_free = 0
        self._ring = [0] * self.queue_depth
        self._count = 0
        self.stats = Stats()
        #: Observability bus (``EventBus``), attached after construction;
        #: publishing never alters link state or timing.
        self.obs = None

    # ------------------------------------------------------------ placement

    def is_far(self, addr: int) -> bool:
        """Whether ``addr`` lives in the far pool (deterministic)."""
        placement = self._placement
        if placement == "all":
            return True
        if placement == "range":
            return addr >= self._far_base
        return ((addr >> 6) * _HASH_MULT) % _HASH_MOD < self._threshold

    def far_mask(self, addrs: np.ndarray) -> np.ndarray:
        """:meth:`is_far` over an int64 address array."""
        placement = self._placement
        if placement == "all":
            return np.ones(len(addrs), dtype=bool)
        if placement == "range":
            return addrs >= self._far_base
        # The product wraps mod 2**64, which leaves it unchanged mod 2**32.
        keys = (addrs >> 6).astype(np.uint64) * np.uint64(_HASH_MULT)
        return keys % np.uint64(_HASH_MOD) < self._threshold

    # ------------------------------------------------------------- traversal

    def inject(self, arrival: int, is_write: bool) -> int:
        """Outbound traversal: returns the request's arrival at the far
        pool.  Reads send a header (1 cycle on the link); writes serialize
        their 64B payload.  Called once per far request, at enqueue."""
        busy = self.data_cycles if is_write else 1
        depart = arrival if arrival > self._out_free else self._out_free
        self._out_free = depart + busy
        counters = self.stats.counters
        counters["far_writes" if is_write else "far_reads"] += 1
        counters["far_bytes"] += self._line_bytes
        counters["link_out_wait"] += depart - arrival
        return depart + self.latency

    def deliver(self, finish: int, is_write: bool) -> int:
        """Return traversal: the cycle the response lands at the requester.

        ``finish`` is the far-side DRAM completion.  The grant waits for
        the return channel, for the ring slot ``queue_depth`` transfers
        back (the read-return buffer bound), and — with the congestion
        model on — an occupancy-proportional queueing term.  Reads
        serialize the 64B payload; writes return a header-sized ack.
        Called once per far request, at the engines' finish assignment.
        """
        t = finish
        if self._ret_free > t:
            t = self._ret_free
        slot = self._count % self.queue_depth
        prev = self._ring[slot]
        if prev > t:
            t = prev
        if self.congestion:
            # Each grant pays extra for standing occupancy: the number of
            # return transfers still in flight, scaled by the payload time.
            inflight = 0
            for done in self._ring:
                if done > t:
                    inflight += 1
            t += (inflight * self.data_cycles) // self.queue_depth
        busy = 1 if is_write else self.data_cycles
        self._ret_free = t + busy
        delivered = t + busy + self.latency
        self._ring[slot] = delivered
        self._count += 1
        counters = self.stats.counters
        counters["far_serviced"] += 1
        counters["link_ret_wait"] += t - finish
        obs = self.obs
        if obs is not None:
            # Occupancy snapshot (pure read — timing is already fixed).
            inflight = 0
            for done in self._ring:
                if done > t:
                    inflight += 1
            obs.link_transfer(delivered, inflight, t - finish)
        return delivered

    # --------------------------------------------------------------- metrics

    @property
    def transfers(self) -> int:
        """Total far requests delivered back so far."""
        return self._count

    def mean_return_wait(self) -> float:
        """Mean return-path queueing delay per delivered far request."""
        if self._count == 0:
            return 0.0
        return self.stats.get("link_ret_wait") / self._count
