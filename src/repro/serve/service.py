"""The multi-tenant serve loop: admission -> fair pick -> partition -> DRAM.

``serve_run`` drives N closed-loop tenant streams against one shared
:class:`~repro.dram.system.DRAMSystem`:

1. each tenant submits its next tile when the previous one completes;
2. the :class:`~repro.serve.admission.AdmissionController` token-buckets
   the tile (cost = lines), fixing its earliest scheduling cycle;
3. the :class:`~repro.serve.scheduler.FairScheduler` deficit-round-robins
   across tenants' admitted tiles, with starvation escalation fed from the
   DRAM schedulers via the observability bus;
4. the picked tile fills the tenant's slice of the
   :class:`~repro.serve.partition.PartitionedRowTable` (hard quota +
   work-conserving borrow; refusals force an early drain), drains in the
   row-hit-preserving interleaved order, and issues each line to DRAM
   tagged with the tenant id — paced by the
   :class:`~repro.serve.partition.BufferLedger` in-flight credits;
5. tiles complete out of a two-deep pipeline, so consecutive tiles from
   different tenants genuinely overlap inside the memory controllers and
   interference shows up in the per-tenant latency distributions.

Every decision depends only on request finish cycles, which the batched
engine and the scalar oracle produce identically — so an entire serve run
is engine-differential-testable, and ``tag_requests=False`` replays the
same schedule untagged for the single-tenant degeneracy proof.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.common.config import DRAMConfig
from repro.common.types import DRAMCoord, DRAMRequest
from repro.dram.system import DRAMSystem
from repro.obs.events import EventBus, _SchedulerProbe
from repro.serve.admission import AdmissionController, check_buckets
from repro.serve.partition import (BufferLedger, PartitionedRowTable,
                                   check_partition)
from repro.serve.scheduler import FairScheduler
from repro.serve.tenant import TenantSpec, jain_index, make_tenants, percentile

#: Fixed word-modifier-style latency added to every tile's completion.
TILE_EPILOGUE = 16
#: Tiles in flight, over all tenants, before the oldest is completed.
PIPELINE_DEPTH = 2


@dataclass
class _Issued:
    """One in-flight line: request plus its ledger-credit state."""

    tenant: int
    request: DRAMRequest
    released: bool = False


@dataclass
class _InflightTile:
    tenant: int
    index: int              # tenant-local tile number
    submit: int
    admit: int
    entries: list[_Issued]


@dataclass
class TenantReport:
    """Per-tenant outcome of one serve run."""

    tenant_id: int
    tiles: int
    lines: int
    p50: int
    p99: int
    mean_latency: float
    max_admission_delay: int
    span: int                  # first submit -> last completion
    dram_serviced: int
    dram_bytes: int
    dram_row_hits: int
    borrowed_inserts: int
    refused_quota: int
    refused_physical: int
    completions: list[int] = field(default_factory=list, repr=False)

    @property
    def throughput(self) -> float:
        """Lines retired per cycle over the tenant's active span."""
        return self.lines / max(1, self.span)


@dataclass
class ServeReport:
    """Everything one serve run produced."""

    engine: str
    tenants: list[TenantReport]
    total_cycles: int
    jain: float
    starvations: int
    escalated_picks: int

    def golden_snapshot(self) -> dict:
        """JSON-stable digest for the tenancy golden file (exact compare)."""
        return {
            "total_cycles": int(self.total_cycles),
            "jain": round(self.jain, 6),
            "starvations": int(self.starvations),
            "escalated_picks": int(self.escalated_picks),
            "tenants": {
                str(t.tenant_id): {
                    "tiles": t.tiles,
                    "lines": t.lines,
                    "p50": t.p50,
                    "p99": t.p99,
                    "mean_latency": round(t.mean_latency, 3),
                    "max_admission_delay": t.max_admission_delay,
                    "span": t.span,
                    "dram_serviced": t.dram_serviced,
                    "dram_bytes": t.dram_bytes,
                    "dram_row_hits": t.dram_row_hits,
                    "borrowed_inserts": t.borrowed_inserts,
                    "refused_quota": t.refused_quota,
                    "refused_physical": t.refused_physical,
                }
                for t in self.tenants
            },
        }

    def render(self, width: int = 48) -> str:
        """Human-readable report with a per-tenant completion timeline."""
        from repro.obs.timeline import _sparkline
        lines = [
            f"serve: {len(self.tenants)} tenant(s), engine={self.engine}, "
            f"{self.total_cycles} cycles",
            f"  fairness (Jain over tenant throughput): {self.jain:.4f}   "
            f"dram starvation escalations: {self.starvations} "
            f"(frontend picks escalated: {self.escalated_picks})",
            "  tenant  tiles  lines     p50     p99    mean  adm.max  "
            "borrow  tput(l/kc)",
        ]
        for t in self.tenants:
            lines.append(
                f"  {t.tenant_id:>6}  {t.tiles:>5}  {t.lines:>5}  "
                f"{t.p50:>6}  {t.p99:>6}  {t.mean_latency:>7.1f}  "
                f"{t.max_admission_delay:>7}  {t.borrowed_inserts:>6}  "
                f"{1000.0 * t.throughput:>9.2f}")
        span = max(1, self.total_cycles)
        for t in self.tenants:
            buckets = [0.0] * width
            for cycle in t.completions:
                slot = min(width - 1, cycle * width // span)
                buckets[slot] += 1.0
            lines.append(
                f"  t{t.tenant_id} completions "
                f"|{_sparkline(buckets, 0.0, max(buckets) or 1.0)}|")
        return "\n".join(lines)


def _attach_starvation_probes(dram: DRAMSystem, bus: EventBus) -> None:
    """Wire the per-channel schedulers' starvation hook to ``bus``.

    The full :meth:`EventBus.attach` expects a built ``SimSystem``; serve
    drives a bare ``DRAMSystem``, so only the scheduler probes are wired.
    """
    for ctrl in dram.controllers:
        scheduler = ctrl.scheduler
        if hasattr(scheduler, "obs"):
            setattr(scheduler, "obs", _SchedulerProbe(bus, ctrl.channel))


def serve_run(specs: list[TenantSpec],
              config: DRAMConfig | None = None,
              rows_per_slice: int = 64,
              cols_per_row: int = 8,
              borrow: bool = True,
              tag_requests: bool = True) -> ServeReport:
    """Run every tenant's tile stream to completion; returns the report.

    Each tenant's Row Table and request-buffer quotas are an even split of
    the physical capacity (``rows_per_slice`` BCAM units per bank slice;
    the per-channel request buffers summed), and at most
    ``PIPELINE_DEPTH`` tiles are in flight.  ``tag_requests=False`` issues
    the identical schedule with untagged requests — the degeneracy-test
    control.  Every QoS invariant is re-verified at each tile completion.
    """
    if not specs:
        raise ValueError("serve_run needs at least one tenant")
    ids = [spec.tenant_id for spec in specs]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate tenant ids")
    config = config or DRAMConfig()
    dram = DRAMSystem(config)
    bus = EventBus(trace=True)
    _attach_starvation_probes(dram, bus)

    n = len(specs)
    rq = max(1, rows_per_slice // n)
    part = PartitionedRowTable({t: rq for t in ids},
                               rows_per_slice=rows_per_slice,
                               cols_per_row=cols_per_row, borrow=borrow)
    buffer_capacity = config.request_buffer * config.channels
    bq = max(1, buffer_capacity // n)
    ledger = BufferLedger({t: bq for t in ids}, capacity=buffer_capacity,
                          borrow=borrow)
    admission = AdmissionController(specs)
    fair = FairScheduler(ids, bus=bus)

    by_id = {spec.tenant_id: spec for spec in specs}
    tiles = {spec.tenant_id: spec.generate_tiles(config.line_bytes)
             for spec in specs}
    next_tile = {t: 0 for t in ids}
    first_submit: dict[int, int] = {}
    latencies: dict[int, list[int]] = {t: [] for t in ids}
    completions: dict[int, list[int]] = {t: [] for t in ids}
    lines_done = {t: 0 for t in ids}
    last_completion = {t: 0 for t in ids}

    outstanding: deque[_Issued] = deque()
    inflight: deque[_InflightTile] = deque()
    no_h_bit = (lambda line_addr: False)

    def submit(tenant: int, cycle: int) -> None:
        """Closed loop: push the tenant's next tile through admission."""
        k = next_tile[tenant]
        if k >= by_id[tenant].tiles:
            return
        next_tile[tenant] = k + 1
        first_submit.setdefault(tenant, cycle)
        tile = tiles[tenant][k]
        admit = admission.admit(tenant, float(len(tile)), cycle)
        fair.push(tenant, admit, (k, tile, cycle, admit))

    def reclaim_one(cursor: int) -> int:
        """Resolve the oldest in-flight line, freeing its buffer credit."""
        while outstanding:
            entry = outstanding.popleft()
            if entry.released:
                continue
            finish = dram.complete(entry.request)
            ledger.release(entry.tenant)
            entry.released = True
            return max(cursor, finish)
        raise RuntimeError("buffer credits exhausted with nothing in flight")

    def flush(tenant: int, cursor: int,
              entries: list[_Issued]) -> int:
        """Drain the tenant's Row Table slice and issue lines to DRAM."""
        # Verify at peak occupancy — after a drain the tables are empty
        # and a quota violation would be invisible.
        check_partition(part)
        tag = tenant if tag_requests else -1
        for pline in part.drain(tenant):
            while not ledger.try_acquire(tenant):
                cursor = reclaim_one(cursor)
            req = dram.access(pline.line_addr, is_write=False,
                              arrival=cursor,
                              decoded=pline.coord + (pline.row,),
                              tenant=tag)
            issued = _Issued(tenant=tenant, request=req)
            entries.append(issued)
            outstanding.append(issued)
            cursor += 1
        return cursor

    def issue_tile(tenant: int, tile, cursor: int) -> tuple[list[_Issued],
                                                            int]:
        entries: list[_Issued] = []
        addrs = tile
        fields = dram.mapper.map_arrays(addrs)
        chans = fields["channel"].tolist()
        ranks = fields["rank"].tolist()
        bgs = fields["bankgroup"].tolist()
        banks = fields["bank"].tolist()
        rows = fields["row"].tolist()
        cols = fields["column"].tolist()
        line_list = fields["line"].tolist()
        for e in range(len(line_list)):
            coord = DRAMCoord(channel=chans[e], rank=ranks[e],
                              bankgroup=bgs[e], bank=banks[e],
                              row=rows[e], column=cols[e])
            accepted, _ = part.try_insert(tenant, coord, line_list[e], e,
                                          no_h_bit)
            if not accepted:
                cursor = flush(tenant, cursor, entries)
                accepted, _ = part.try_insert(tenant, coord, line_list[e],
                                              e, no_h_bit)
                if not accepted:
                    raise RuntimeError(
                        "insert refused on a freshly drained slice")
        return entries, flush(tenant, cursor, entries)

    def complete_tile(tile_rec: _InflightTile) -> int:
        finish = tile_rec.admit
        for entry in tile_rec.entries:
            done = dram.complete(entry.request)
            if not entry.released:
                ledger.release(entry.tenant)
                entry.released = True
            if done > finish:
                finish = done
        finish += TILE_EPILOGUE
        tenant = tile_rec.tenant
        latencies[tenant].append(finish - tile_rec.submit)
        completions[tenant].append(finish)
        lines_done[tenant] += len(tile_rec.entries)
        if finish > last_completion[tenant]:
            last_completion[tenant] = finish
        check_buckets(admission)
        check_partition(part)
        ledger.check()
        submit(tenant, finish)
        return finish

    for tenant in ids:
        submit(tenant, 0)

    now = 0
    while True:
        picked = fair.pick(now)
        if picked is None:
            ready = fair.next_ready()
            if ready is not None:
                # Nothing eligible yet: the earliest queued admission (or
                # an in-flight completion, which may unblock submissions
                # retroactively paced before it) decides the next cycle.
                if inflight:
                    complete_tile(inflight.popleft())
                else:
                    now = max(now, ready)
                continue
            if inflight:
                complete_tile(inflight.popleft())
                continue
            break
        tenant, (k, tile, submit_cycle, admit) = picked
        start = max(now, admit)
        entries, now = issue_tile(tenant, tile, start)
        inflight.append(_InflightTile(tenant=tenant, index=k,
                                      submit=submit_cycle, admit=admit,
                                      entries=entries))
        while len(inflight) > PIPELINE_DEPTH:
            complete_tile(inflight.popleft())

    dram.drain()
    total_cycles = max(dram.last_finish(),
                       max(last_completion.values(), default=0))

    reports = []
    for spec in specs:
        t = spec.tenant_id
        samples = latencies[t]
        counters = (dram.tenant_counters(t) if tag_requests
                    else {"serviced": 0, "bytes": 0, "row_hits": 0})
        span = last_completion[t] - first_submit.get(t, 0)
        reports.append(TenantReport(
            tenant_id=t,
            tiles=len(samples),
            lines=lines_done[t],
            p50=percentile(samples, 50.0),
            p99=percentile(samples, 99.0),
            mean_latency=(sum(samples) / len(samples)) if samples else 0.0,
            max_admission_delay=admission.worst_delay(t),
            span=max(1, span),
            dram_serviced=counters["serviced"],
            dram_bytes=counters["bytes"],
            dram_row_hits=counters["row_hits"],
            borrowed_inserts=part.borrowed_inserts[t],
            refused_quota=part.refused_quota[t],
            refused_physical=part.refused_physical[t],
            completions=completions[t],
        ))
    return ServeReport(
        engine=config.engine,
        tenants=reports,
        total_cycles=int(total_cycles),
        jain=jain_index([r.throughput for r in reports]),
        starvations=len(bus.starvations),
        escalated_picks=fair.escalated_picks,
    )


# ------------------------------------------------------- canonical scenarios

def tenancy_scenarios(engine: str | None = None) -> dict[str, ServeReport]:
    """The golden-pinned tenant-count x interference grid.

    Shared by the ``tenancy`` golden suite (``python -m repro golden
    check tenancy``; :mod:`repro.sim.golden`) and the tenancy sweep
    benchmark, so the pinned numbers always describe the same runs.
    ``engine`` forces the DRAM engine (default: the config's own).
    """
    from dataclasses import replace
    config = DRAMConfig()
    if engine is not None:
        config = replace(config, engine=engine)
    out: dict[str, ServeReport] = {}
    out["t1"] = serve_run(
        make_tenants(1, tiles=4, tile_lines=96), config=config)
    out["t2"] = serve_run(
        make_tenants(2, tiles=4, tile_lines=96), config=config)
    out["t2_aggressor"] = serve_run(
        make_tenants(2, tiles=4, tile_lines=96, aggressor=1), config=config)
    out["t4"] = serve_run(
        make_tenants(4, tiles=3, tile_lines=96), config=config)
    return out
