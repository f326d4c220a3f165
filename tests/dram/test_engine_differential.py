"""Differential tests: the batched array-kernel engine vs the scalar oracle.

:class:`~repro.dram.batched.BatchedController` must be *bitwise identical*
to :class:`~repro.dram.MemoryController` — same command stream (kind,
cycle, bank, row, in order), same per-request start/finish/row-hit, same
counters and final time — across every configuration both support.  Two
layers:

* hypothesis property tests drive randomized request programs (mixed
  reads/writes, bursty and sparse arrivals, open and closed page, one and
  two ranks, DDR4 and DDR5) through both engines side by side;
* deterministic programs pin the FR-FCFS corners random programs rarely
  reach: the age cap firing (with equal starvation counts on both
  engines), equal-arrival ties, where the earlier insertion wins, and
  each site that moves the batched engine's row-hit counts (ACT,
  conflict PRE, closed-page auto-precharge, REF) with hits buffered in
  both directions;
* seeded long-run tests cross several tREFI refresh intervals and check
  the refresh machinery (REF/PRE emission, tRFC blocking) agrees command
  for command, plus system-level equivalence through
  :class:`~repro.dram.DRAMSystem`'s engine knob.

The auditor's refresh rules get mutation coverage here too: streams with
REF removed, REF landing on an open bank, or an ACT inside tRFC must be
flagged — proving the new rules are not vacuous.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common import DDR4Timing, DRAMConfig, DRAMRequest
from repro.common.config import RemoteLinkConfig, ddr5_6400
from repro.dram import (AddressMapper, CommandAuditor, DRAMSystem,
                        MemoryController)
from repro.dram.batched import BatchedController
from repro.dram.scheduler import AGE_CAP
from repro.obs.events import EventBus, _SchedulerProbe

T = DDR4Timing()


# ------------------------------------------------------------- harness

def _pair(cfg: DRAMConfig):
    """One scalar oracle + one batched engine on the same channel-0
    config, each with a command-stream recorder and (where the policy has
    one) a starvation probe publishing to its own event bus."""
    mapper = AddressMapper(cfg)
    scalar = MemoryController(0, cfg, mapper)
    batched = BatchedController(0, cfg, mapper)
    slog: list[tuple] = []
    blog: list[tuple] = []
    scalar.command_observers.append(
        lambda kind, cycle, bank, row: slog.append((kind, cycle, bank, row)))
    batched.command_observers.append(
        lambda kind, cycle, bank, row: blog.append((kind, cycle, bank, row)))
    for ctrl in (scalar, batched):
        if hasattr(ctrl.scheduler, "obs"):
            ctrl.scheduler.obs = _SchedulerProbe(EventBus(), 0)
    return scalar, batched, slog, blog


def _starvations(ctrl) -> list[tuple]:
    """The (channel, cycle) age-cap overrides ``ctrl`` published."""
    probe = getattr(ctrl.scheduler, "obs", None)
    return [] if probe is None else probe.bus.starvations


def _requests(cfg: DRAMConfig, program: list[tuple]):
    """Materialize the (line, is_write, gap[, tenant]) program twice —
    controllers mutate their requests, so each engine needs its own
    objects.  The optional fourth element is a tenant tag (-1 = untagged),
    which must never change scheduling."""
    mapper = AddressMapper(cfg)
    line = cfg.line_bytes
    limit = cfg.capacity_bytes
    out: list[tuple[int, bool, int, int]] = []
    t = 0
    for entry in program:
        line_no, is_write, gap = entry[:3]
        tenant = entry[3] if len(entry) > 3 else -1
        addr = (line_no * line) % limit
        if mapper.map(addr).channel != 0:
            addr = (addr + line * cfg.channels) % limit
            if mapper.map(addr).channel != 0:   # pragma: no cover
                continue
        t += gap
        out.append((addr, is_write, t, tenant))
    return (
        [DRAMRequest(a, w, arrival=t, tenant=tn) for a, w, t, tn in out],
        [DRAMRequest(a, w, arrival=t, tenant=tn) for a, w, t, tn in out],
    )


def _assert_equivalent(cfg: DRAMConfig, program: list[tuple]) -> int:
    """Drive ``program`` through both engines and assert they agree;
    returns the (equal) number of age-cap overrides."""
    scalar, batched, slog, blog = _pair(cfg)
    reqs_s, reqs_b = _requests(cfg, program)
    for rs, rb in zip(reqs_s, reqs_b):
        scalar.enqueue(rs)
        batched.enqueue(rb)
    scalar.drain()
    batched.drain()
    assert slog == blog
    for rs, rb in zip(reqs_s, reqs_b):
        assert (rs.start, rs.finish, rs.row_hit) == \
            (rb.start, rb.finish, rb.row_hit)
    assert scalar.time == batched.time
    assert dict(scalar.stats.counters) == dict(batched.stats.counters)
    assert scalar.stats.mins == batched.stats.mins
    assert scalar.stats.maxs == batched.stats.maxs
    assert scalar.mean_occupancy() == batched.mean_occupancy()
    assert _starvations(scalar) == _starvations(batched)
    return len(_starvations(scalar))


# ------------------------------------------------- property: random programs

_program = st.lists(
    st.tuples(
        st.integers(0, 1 << 14),          # line number (folds into capacity)
        st.booleans(),                    # write?
        st.integers(0, 400),              # arrival gap (bursts and idle)
    ),
    min_size=1, max_size=120,
)

_CONFIGS = {
    "ddr4-open": DRAMConfig(channels=1),
    "ddr4-closed": DRAMConfig(channels=1, page_policy="closed"),
    "ddr4-2rank": DRAMConfig(channels=1, ranks=2),
    "ddr4-fcfs": DRAMConfig(channels=1, scheduler="fcfs"),
    "ddr4-tiny-buffer": DRAMConfig(channels=1, request_buffer=4),
    "ddr4-no-refresh": DRAMConfig(channels=1, refresh=False),
    "ddr5-closed": replace(ddr5_6400(), channels=1),
}


@pytest.mark.parametrize("name", sorted(_CONFIGS))
@settings(max_examples=40, deadline=None)
@given(program=_program)
def test_batched_matches_scalar_randomized(name, program):
    _assert_equivalent(_CONFIGS[name], program)


# ------------------------------------------- deterministic FR-FCFS corners

def _line(cfg: DRAMConfig, bank: int, row: int, column: int) -> int:
    """Line number of a channel-0 coordinate (the programs' address unit)."""
    addr = AddressMapper(cfg).compose(bank=bank, row=row, column=column)
    return addr // cfg.line_bytes


def _age_cap_program(cfg: DRAMConfig) -> list[tuple]:
    """Open row 1, queue one conflict to row 9 of the same bank, then keep
    the tiny buffer fed with younger row-1 hits for longer than the age
    cap: only the cap's override can service the conflict.  The hits
    arrive a little faster than the bank serves them, so the buffer never
    runs dry but the backlog stays well under the cap (one override)."""
    return ([(_line(cfg, 0, 1, 0), False, 0),
             (_line(cfg, 0, 9, 0), False, 1)]
            + [(_line(cfg, 0, 1, i % 64), False, 14)
               for i in range(1, AGE_CAP // 6)])


def _tie_program(cfg: DRAMConfig) -> list[tuple]:
    """Bursts of equal-arrival requests over two rows in each of four
    banks, both directions: every pick breaks an arrival tie, which the
    earlier buffer insertion must win."""
    return [(_line(cfg, i % 4, (i // 4) % 2, i % 64), i % 3 == 0,
             300 if i % 24 == 0 else 0)
            for i in range(240)]


def _act_program(cfg: DRAMConfig) -> list[tuple]:
    """Bursts that open row ``r`` in four banks and then queue reads and
    writes to row ``r + 1`` behind it: the ACT that opens ``r + 1`` turns
    the rest of its bank's burst into buffered hits in both directions,
    which FR-FCFS must promote past older conflicts in other banks."""
    program = []
    for burst in range(6):
        row = 2 * burst
        program += [(_line(cfg, bank, row, 0), False, 300 if bank == 0 else 0)
                    for bank in range(4)]
        program += [(_line(cfg, bank, row + 1, column), column % 2 == 0, 0)
                    for column in range(1, 7) for bank in range(4)]
    return program


def _conflict_pre_program(cfg: DRAMConfig) -> list[tuple]:
    """The age-cap program with every fourth hit a write: the cap forces
    the row-9 conflict past buffered read and write hits to open row 1,
    so its PRE closes a row that still has hits in both directions."""
    return ([(_line(cfg, 0, 1, 0), False, 0),
             (_line(cfg, 0, 9, 0), False, 1)]
            + [(_line(cfg, 0, 1, i % 64), i % 4 == 0, 14)
               for i in range(1, AGE_CAP // 6)])


def _refresh_program(cfg: DRAMConfig) -> list[tuple]:
    """Three bursts of reads and writes to one row in each of four banks,
    each arriving just before a tREFI point: the REF lands inside the
    burst and closes rows with buffered hits in both directions."""
    program = []
    for burst in range(3):
        gap = cfg.timing.tREFI - 100 if burst == 0 else cfg.timing.tREFI
        program += [(_line(cfg, i % 4, 3 + burst, i), i % 3 == 0,
                     gap if i == 0 else 0) for i in range(28)]
    return program


_TINY = _CONFIGS["ddr4-tiny-buffer"]
_OPEN = _CONFIGS["ddr4-open"]
_CLOSED = _CONFIGS["ddr4-closed"]
_DETERMINISTIC = {
    "age-cap": (_TINY, _age_cap_program(_TINY)),
    "act-opens-buffered-hits": (_OPEN, _act_program(_OPEN)),
    "conflict-pre-closes-buffered-hits": (_TINY, _conflict_pre_program(_TINY)),
    "closed-page-auto-precharge": (_CLOSED, _tie_program(_CLOSED)),
    "ref-inside-a-burst": (_OPEN, _refresh_program(_OPEN)),
    "equal-arrival-ties": (_CONFIGS["ddr4-open"],
                           _tie_program(_CONFIGS["ddr4-open"])),
    "equal-arrival-ties-fcfs": (_CONFIGS["ddr4-fcfs"],
                                _tie_program(_CONFIGS["ddr4-fcfs"])),
}


@pytest.mark.parametrize("name", sorted(_DETERMINISTIC))
def test_batched_matches_scalar_deterministic(name):
    cfg, program = _DETERMINISTIC[name]
    starvations = _assert_equivalent(cfg, program)
    if name in ("age-cap", "conflict-pre-closes-buffered-hits"):
        assert starvations > 0, "program must trip the age cap"


_tenant_program = st.lists(
    st.tuples(
        st.integers(0, 1 << 14),          # line number
        st.booleans(),                    # write?
        st.integers(0, 400),              # arrival gap
        st.integers(-1, 3),               # tenant tag (-1 = untagged)
    ),
    min_size=1, max_size=120,
)


@pytest.mark.parametrize("name", ["ddr4-open", "ddr4-tiny-buffer"])
@settings(max_examples=40, deadline=None)
@given(program=_tenant_program)
def test_batched_matches_scalar_with_tenant_tags(name, program):
    """Tenant-tagged programs: the tag feeds per-tenant counters in both
    engines but never the schedule, so the command streams stay identical
    and the counter dicts (tenant ones included) agree exactly.  The
    tiny-buffer config keeps the partitioned-buffer pressure path hot."""
    cfg = _CONFIGS[name]
    _assert_equivalent(cfg, program)
    # Tagged counters must partition the totals: anything serviced for
    # tenant t shows up in tenant{t}_* and in the global counters alike.
    scalar, batched, _, _ = _pair(cfg)
    reqs_s, reqs_b = _requests(cfg, program)
    for rs, rb in zip(reqs_s, reqs_b):
        scalar.enqueue(rs)
        batched.enqueue(rb)
    scalar.drain()
    batched.drain()
    for ctrl in (scalar, batched):
        counters = ctrl.stats.counters
        tagged = sum(v for k, v in counters.items()
                     if k.startswith("tenant") and k.endswith("_serviced"))
        untagged = sum(1 for r in reqs_s if r.tenant < 0)
        assert tagged + untagged == counters["serviced"]


def test_tenant_tags_never_change_the_schedule():
    """The same program with and without tags produces byte-identical
    command streams and per-request timings — the degeneracy guarantee
    the co-run extension relies on."""
    cfg = DRAMConfig(channels=1, request_buffer=8)
    base = _long_program(seed=23, n=250, max_gap=200)
    tagged_prog = [(ln, w, g, i % 3) for i, (ln, w, g) in enumerate(base)]
    for make in (MemoryController,
                 lambda c, cfg, m: BatchedController(c, cfg, m)):
        logs = []
        finishes = []
        for prog in (base, tagged_prog):
            mapper = AddressMapper(cfg)
            ctrl = make(0, cfg, mapper)
            log: list[tuple] = []
            ctrl.command_observers.append(
                lambda kind, cycle, bank, row, _l=log:
                _l.append((kind, cycle, bank, row)))
            reqs, _ = _requests(cfg, prog)
            for r in reqs:
                ctrl.enqueue(r)
            ctrl.drain()
            logs.append(log)
            finishes.append([(r.start, r.finish, r.row_hit) for r in reqs])
        assert logs[0] == logs[1]
        assert finishes[0] == finishes[1]


# ------------------------------------------------------ seeded long runs

def _long_program(seed: int, n: int, max_gap: int):
    import random
    rng = random.Random(seed)
    return [(rng.randrange(1 << 14), rng.random() < 0.4,
             rng.randrange(max_gap)) for _ in range(n)]


@pytest.mark.parametrize("ranks", [1, 2])
def test_refresh_crossing_runs_agree(ranks):
    """Sparse arrivals spanning several tREFI intervals: the dense bank
    walk in the batched refresh catch-up must emit the same PRE/REF
    commands, at the same cycles, as the oracle's sorted-dict walk."""
    cfg = DRAMConfig(channels=1, ranks=ranks)
    program = _long_program(seed=ranks, n=300, max_gap=600)
    scalar, batched, slog, blog = _pair(cfg)
    reqs_s, reqs_b = _requests(cfg, program)
    for rs, rb in zip(reqs_s, reqs_b):
        scalar.enqueue(rs)
        batched.enqueue(rb)
    scalar.drain()
    batched.drain()
    refs = [c for c in slog if c[0] == "REF"]
    assert len(refs) >= ranks * 2, "program must actually cross tREFI"
    assert slog == blog
    assert scalar.time == batched.time
    assert dict(scalar.stats.counters) == dict(batched.stats.counters)


def test_incremental_service_interleaves_identically():
    """service_one step by step (not drain) — the paths the core model and
    the system's next-event drain actually take."""
    cfg = DRAMConfig(channels=1)
    scalar, batched, slog, blog = _pair(cfg)
    reqs_s, reqs_b = _requests(cfg, _long_program(seed=7, n=80, max_gap=150))
    for rs, rb in zip(reqs_s, reqs_b):
        scalar.enqueue(rs)
        batched.enqueue(rb)
    while True:
        a = scalar.service_one()
        b = batched.service_one()
        assert (a is None) == (b is None)
        if a is None:
            break
        assert (a.addr, a.start, a.finish, a.row_hit) == \
            (b.addr, b.start, b.finish, b.row_hit)
        assert scalar.next_event() == batched.next_event()
    assert slog == blog


@pytest.mark.parametrize("name", ["ddr4-open", "ddr4-fcfs"])
def test_row_counts_match_the_buffer(name):
    """After every pick the batched engine's FR-FCFS state is its buffer:
    ``buffer`` is in ``(arrival, rid)`` order within the request-buffer
    bound, ``_rows`` holds exactly the buffered requests' (bank, row,
    direction) counts with no empty rows, and ``_hits`` equals a recount
    against each bank's open row; both are empty whenever the buffer is."""
    import random
    rng = random.Random(11)
    cfg = _CONFIGS[name]
    ctrl = BatchedController(0, cfg, AddressMapper(cfg))
    program = [(rng.randrange(1 << 24), rng.random() < 0.4,
                rng.randrange(12)) for _ in range(6000)]
    for req in _requests(cfg, program)[0]:
        ctrl.enqueue(req)      # all queued up front: never quiescent
    serviced = with_hits = 0
    while ctrl.service_one() is not None:
        serviced += 1
        buffer = ctrl.buffer
        assert buffer == sorted(buffer), serviced
        assert len(buffer) <= cfg.request_buffer
        rows: list[dict] = [{} for _ in ctrl._rows]
        hits = [0, 0]
        for _, rid in buffer:
            bid, row, is_write = ctrl._bid[rid], ctrl._row[rid], ctrl._w[rid]
            rows[bid].setdefault(row, [0, 0])[is_write] += 1
            if ctrl._bank_list[bid].open_row == row:
                hits[is_write] += 1
        assert ctrl._rows == rows, serviced
        assert ctrl._hits == hits, serviced
        if not buffer:
            assert not any(ctrl._rows) and ctrl._hits == [0, 0]
        with_hits += hits != [0, 0]
    assert serviced == len(program)
    assert with_hits > 0, "program must buffer row hits"


def test_dram_system_engine_knob_is_bitwise_equivalent():
    """Two-channel DRAMSystem, engine='scalar' vs 'batched': per-channel
    command logs and merged metrics agree exactly."""
    program = _long_program(seed=11, n=400, max_gap=120)
    logs: dict[str, list[list[tuple]]] = {}
    stats: dict[str, dict] = {}
    finishes: dict[str, int] = {}
    for engine in ("scalar", "batched"):
        cfg = DRAMConfig(channels=2, engine=engine)
        system = DRAMSystem(cfg)
        per_channel: list[list[tuple]] = [[] for _ in system.controllers]
        for ch, ctrl in enumerate(system.controllers):
            ctrl.command_observers.append(
                lambda kind, cycle, bank, row, _log=per_channel[ch]:
                _log.append((kind, cycle, bank, row)))
        t = 0
        for line_no, is_write, gap in program:
            t += gap
            system.access((line_no * 64) % cfg.capacity_bytes, is_write, t)
        system.drain()
        logs[engine] = per_channel
        stats[engine] = dict(system.merged_stats().counters)
        finishes[engine] = system.last_finish()
    assert logs["scalar"] == logs["batched"]
    assert stats["scalar"] == stats["batched"]
    assert finishes["scalar"] == finishes["batched"]


# ------------------------------------------------------ far-memory tier

def _system_run(cfg: DRAMConfig, program: list[tuple]):
    """Drive one program through a full DRAMSystem (the only level where
    the far-memory link participates: inject happens at system enqueue)
    and return everything the differential compares."""
    system = DRAMSystem(cfg)
    per_channel: list[list[tuple]] = [[] for _ in system.controllers]
    for ch, ctrl in enumerate(system.controllers):
        ctrl.command_observers.append(
            lambda kind, cycle, bank, row, _log=per_channel[ch]:
            _log.append((kind, cycle, bank, row)))
    reqs = []
    t = 0
    for line_no, is_write, gap in program:
        t += gap
        reqs.append(system.access(
            (line_no * cfg.line_bytes) % cfg.capacity_bytes, is_write, t))
    system.drain()
    return (per_channel,
            dict(system.merged_stats().counters),
            system.last_finish(),
            [(r.start, r.finish, r.row_hit, r.far) for r in reqs])


def _assert_system_equivalent(cfg: DRAMConfig, program: list[tuple]) -> None:
    runs = {engine: _system_run(replace(cfg, engine=engine), program)
            for engine in ("scalar", "batched")}
    assert runs["scalar"] == runs["batched"]


_FAR_CONFIGS = {
    # Every line behind the link at the default latency/bandwidth.
    "cxl-all": DRAMConfig(channels=1, remote=RemoteLinkConfig(enabled=True)),
    # Tiered placement: half the lines far by deterministic hash — the
    # local/remote interleave exercises the far flag on a per-request
    # basis rather than uniformly.
    "cxl-mixed": DRAMConfig(channels=1, remote=RemoteLinkConfig(
        enabled=True, placement="hash", far_fraction=0.5)),
    # A one-deep return ring over a starved link: every delivery waits on
    # the previous one, so the ring cursor dominates the timing.
    "cxl-tiny-queue": DRAMConfig(channels=1, remote=RemoteLinkConfig(
        enabled=True, queue_depth=1, gbps=4.0)),
    # Occupancy-proportional congestion on top of the queue bound.
    "cxl-congested": DRAMConfig(channels=1, remote=RemoteLinkConfig(
        enabled=True, queue_depth=8, gbps=8.0, congestion=True)),
    # Two channels sharing ONE link: cross-channel service order feeds a
    # single return cursor (the sharing the per-controller harness above
    # cannot see).
    "cxl-2ch": DRAMConfig(channels=2, remote=RemoteLinkConfig(
        enabled=True, latency=800)),
}


@pytest.mark.parametrize("name", sorted(_FAR_CONFIGS))
@settings(max_examples=25, deadline=None)
@given(program=_program)
def test_far_tier_engines_bitwise_equivalent(name, program):
    """Randomized programs with far-tier placement: both engines route
    completions through the same shared RemoteLink, so command streams,
    per-request timings (including link-delivered finishes), link
    counters, and final time must agree exactly."""
    _assert_system_equivalent(_FAR_CONFIGS[name], program)


def test_far_tier_counters_present_and_consistent():
    """The link actually fires: far counters exist, partition by
    placement, and deliveries equal injections after a full drain."""
    program = _long_program(seed=17, n=300, max_gap=150)
    _, counters, _, timings = _system_run(_FAR_CONFIGS["cxl-mixed"], program)
    far = sum(1 for _, _, _, f in timings if f)
    local = sum(1 for _, _, _, f in timings if not f)
    assert far > 0 and local > 0, "hash placement must split the program"
    assert counters["far_serviced"] == far
    assert counters["far_reads"] + counters["far_writes"] == far
    assert counters["serviced"] == far + local


def test_refresh_crossing_a_stalled_link_agrees():
    """Sparse arrivals spanning several tREFI intervals while the link is
    starved (1-deep ring, trickle bandwidth): refresh catch-up interleaves
    with link-stalled deliveries identically on both engines."""
    cfg = DRAMConfig(channels=1, ranks=2, remote=RemoteLinkConfig(
        enabled=True, queue_depth=1, gbps=1.0))
    program = _long_program(seed=29, n=250, max_gap=700)
    runs = {engine: _system_run(replace(cfg, engine=engine), program)
            for engine in ("scalar", "batched")}
    refs = [c for c in runs["scalar"][0][0] if c[0] == "REF"]
    assert len(refs) >= 4, "program must actually cross tREFI"
    assert runs["scalar"] == runs["batched"]


def test_link_disabled_is_bitwise_the_default():
    """An explicit disabled RemoteLinkConfig changes nothing: same logs,
    counters, and timings as the stock config, and no far flags."""
    program = _long_program(seed=31, n=200, max_gap=120)
    stock = _system_run(DRAMConfig(channels=2), program)
    disabled = _system_run(
        DRAMConfig(channels=2, remote=RemoteLinkConfig(
            enabled=False, latency=9999)), program)
    assert stock == disabled
    assert not any(f for _, _, _, f in stock[3])
    assert "far_serviced" not in stock[1]


@pytest.mark.parametrize("engine", ["scalar", "batched"])
@pytest.mark.parametrize("scheduler", ["ref-frfcfs", "magic"])
def test_unknown_scheduler_rejected(engine, scheduler):
    """Both engines refuse a policy name outside {frfcfs, fcfs} with the
    same error, which names the valid choices."""
    with pytest.raises(ValueError, match="expected one of frfcfs, fcfs"):
        DRAMSystem(DRAMConfig(channels=1, engine=engine,
                              scheduler=scheduler))


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        DRAMSystem(DRAMConfig(engine="vectorized"))


# -------------------------------------------- auditor refresh mutations

def _legal_prefix():
    """A minimal legal stream: one ACT + RD on bank (0,0,0,0)."""
    return [("ACT", 0, (0, 0, 0, 0), 5),
            ("RD", T.tRCD, (0, 0, 0, 0), 5)]


def test_auditor_flags_stream_with_refresh_omitted():
    """A rank silently running past 9 x tREFI without a REF violates the
    postponement window — the rule a refresh-dropping engine bug would
    trip."""
    log = _legal_prefix()
    late = 9 * T.tREFI + T.tRCD + 100
    log += [("PRE", late, (0, 0, 0, 0), 5),
            ("ACT", late + T.tRP, (0, 0, 0, 0), 6)]
    auditor = CommandAuditor(T).check_log(log)
    assert any(v.rule == "tREFI-window" for v in auditor.violations)
    # Same stream with a timely REF in the middle is clean.
    fixed = _legal_prefix()
    mid = T.tREFI
    fixed += [("PRE", mid - T.tRP - 1, (0, 0, 0, 0), 5),
              ("REF", mid, (0, 0, 0, 0), -1),
              ("ACT", late + T.tRP, (0, 0, 0, 0), 6)]
    assert CommandAuditor(T).check_log(fixed).ok


def test_auditor_flags_ref_on_open_bank():
    log = _legal_prefix()
    log.append(("REF", T.tREFI, (0, 0, 0, 0), -1))   # row 5 still open
    auditor = CommandAuditor(T).check_log(log)
    assert any(v.rule == "ref-on-open-bank" for v in auditor.violations)


def test_auditor_flags_act_inside_trfc():
    log = [("REF", 1000, (0, 0, 0, 0), -1),
           ("ACT", 1000 + T.tRFC - 1, (0, 0, 0, 0), 3)]
    auditor = CommandAuditor(T).check_log(log)
    assert any(v.rule == "tRFC" for v in auditor.violations)
    clean = [("REF", 1000, (0, 0, 0, 0), -1),
             ("ACT", 1000 + T.tRFC, (0, 0, 0, 0), 3)]
    assert CommandAuditor(T).check_log(clean).ok


def test_refresh_off_engines_emit_no_refs_and_still_agree():
    cfg = DRAMConfig(channels=1, refresh=False)
    scalar, batched, slog, blog = _pair(cfg)
    reqs_s, reqs_b = _requests(cfg, _long_program(seed=3, n=200, max_gap=600))
    for rs, rb in zip(reqs_s, reqs_b):
        scalar.enqueue(rs)
        batched.enqueue(rb)
    scalar.drain()
    batched.drain()
    assert slog == blog
    assert not any(c[0] == "REF" for c in slog)


# ------------------------------------------ column batches (DX100 drains)

def _batch_run(cfg: DRAMConfig, program: list[tuple], columns: bool):
    """Drive ``program`` through a DRAMSystem the way the DX100 indirect
    unit drains, either as columns (``access_lines`` / ``finish_of`` /
    ``write_line``) or line by line (``access`` / ``complete``, the path
    the scalar unit keeps).

    Steps are ``("core", line_no, is_write, gap)`` single requests, or
    ``("batch", line_nos, gap, writeback, core)``: a drain issued at two
    lines per cycle, then ``core`` requests ``(line_no, is_write, dt)``
    enqueued while the drain is in flight, then the response (each line
    waited for in drain order and, with ``writeback``, written back at its
    finish + 1)."""
    system = DRAMSystem(cfg)
    per_channel: list[list[tuple]] = [[] for _ in system.controllers]
    for ch, ctrl in enumerate(system.controllers):
        ctrl.command_observers.append(
            lambda kind, cycle, bank, row, _log=per_channel[ch]:
            _log.append((kind, cycle, bank, row)))
    span = cfg.capacity_bytes
    line = cfg.line_bytes
    core: list = []
    finishes: list[int] = []
    wb_arrivals: list[int] = []
    t = 0
    for step in program:
        if step[0] == "core":
            _, line_no, is_write, gap = step
            t += gap
            core.append(system.access(line_no * line % span, is_write, t))
            continue
        _, line_nos, gap, writeback, traffic = step
        t += gap
        addrs = np.array([n * line % span for n in line_nos], dtype=np.int64)
        fields = system.mapper.map_arrays(addrs)
        arrivals = t + np.arange(len(addrs), dtype=np.int64) // 2
        names = ("channel", "rank", "bankgroup", "bank", "row")
        decoded = [tuple(int(fields[name][j]) for name in names)
                   for j in range(len(addrs))]
        if columns:
            tickets = system.access_lines(
                fields["line"], arrivals, *(fields[name] for name in names))
        else:
            reqs = [system.access(int(a), False, int(at), decoded=d)
                    for a, at, d in zip(addrs, arrivals, decoded)]
        for line_no, is_write, dt in traffic:
            core.append(system.access(line_no * line % span, is_write,
                                      t + dt))
        for j, d in enumerate(decoded):
            if columns:
                finish = system.controllers[d[0]].finish_of(tickets[j])
            else:
                finish = system.complete(reqs[j])
            finishes.append(finish)
            if writeback:
                if columns:
                    arrival = system.write_line(int(addrs[j]), finish + 1,
                                                *d)
                else:
                    arrival = system.access(int(addrs[j]), True, finish + 1,
                                            decoded=d).arrival
                wb_arrivals.append(arrival)
        if columns:
            system.release_lines()
    system.drain()
    return (per_channel, dict(system.merged_stats().counters),
            system.last_finish(), finishes, wb_arrivals,
            [(r.start, r.finish, r.row_hit, r.far) for r in core])


def _assert_batches_equivalent(cfg: DRAMConfig, program: list[tuple]):
    """Columns on both engines and line by line on both engines agree."""
    runs = [_batch_run(replace(cfg, engine=engine), program, columns)
            for engine in ("scalar", "batched") for columns in (False, True)]
    for run in runs[1:]:
        assert run == runs[0]
    return runs[0]


_batch_step = st.one_of(
    st.tuples(st.just("core"), st.integers(0, 1 << 14), st.booleans(),
              st.integers(0, 300)),
    st.tuples(st.just("batch"),
              st.lists(st.integers(0, 1 << 14), min_size=1, max_size=80),
              st.integers(0, 300), st.booleans(),
              st.lists(st.tuples(st.integers(0, 1 << 14), st.booleans(),
                                 st.integers(0, 60)), max_size=6)),
)

_BATCH_CONFIGS = {
    "ddr4-2ch": DRAMConfig(channels=2),
    "ddr4-tiny-buffer": DRAMConfig(channels=2, request_buffer=4),
    "ddr4-closed-fcfs": DRAMConfig(channels=1, page_policy="closed",
                                   scheduler="fcfs"),
    "cxl-mixed-2ch": DRAMConfig(channels=2, remote=RemoteLinkConfig(
        enabled=True, placement="hash", far_fraction=0.5, queue_depth=4)),
}


@pytest.mark.parametrize("name", sorted(_BATCH_CONFIGS))
@settings(max_examples=25, deadline=None)
@given(program=st.lists(_batch_step, min_size=1, max_size=6))
def test_column_batches_match_line_requests(name, program):
    """A drain entering DRAM as columns is bitwise the drain entering line
    by line, on both engines: command streams, counters, every finish
    cycle, writeback arrival and interleaved core request."""
    _assert_batches_equivalent(_BATCH_CONFIGS[name], program)


def _rows(cfg: DRAMConfig, n: int, seed: int) -> list[int]:
    import random
    rng = random.Random(seed)
    return [rng.randrange(1 << 16) for _ in range(n)]


def test_batch_under_back_pressure_with_core_traffic():
    """A 300-line drain into a 4-entry request buffer, with core requests
    arriving mid-drain: the batch waits in the input queue and the core
    requests queue behind it, as they would line by line."""
    cfg = DRAMConfig(channels=2, request_buffer=4)
    traffic = [(n, n % 3 == 0, n % 50) for n in _rows(cfg, 12, 5)]
    program = [("core", 7, False, 0),
               ("batch", _rows(cfg, 300, 1), 10, False, traffic)]
    per_channel, counters, *_ = _assert_batches_equivalent(cfg, program)
    assert counters["requests"] == 1 + 300 + 12
    assert all(log for log in per_channel)


def test_batch_crossing_refresh_with_far_lines():
    """Drains straddling tREFI points with half the lines behind the far
    link: the REFs land inside the batch and far deliveries interleave
    with local completions identically."""
    cfg = DRAMConfig(channels=2, ranks=2, remote=RemoteLinkConfig(
        enabled=True, placement="hash", far_fraction=0.5, queue_depth=2))
    program = [("batch", _rows(cfg, 200, seed), T.tREFI - 150, True, [])
               for seed in range(3)]
    per_channel, counters, *_ = _assert_batches_equivalent(cfg, program)
    assert sum(c[0] == "REF" for log in per_channel for c in log) >= 3
    assert 0 < counters["far_reads"] < 600
    assert counters["far_writes"] > 0


def test_writebacks_interleave_with_later_reads():
    """RMW writebacks enter right after their own read: FR-FCFS then
    services some writeback before a later read of the same drain, which
    a reads-first-then-writebacks split would not reproduce.  Each read
    opens a row in its own bank, so once a writeback has arrived it is the
    only row hit when the next read is picked."""
    cfg = DRAMConfig(channels=1)
    mapper = AddressMapper(cfg)
    lines = [mapper.compose(bankgroup=g, bank=b, row=5) // cfg.line_bytes
             for g in range(cfg.bankgroups)
             for b in range(cfg.banks_per_group)]
    program = [("batch", lines, 0, True, [])]
    per_channel, counters, *_ = _assert_batches_equivalent(cfg, program)
    kinds = [c[0] for c in per_channel[0] if c[0] in ("RD", "WR")]
    last_read = max(i for i, kind in enumerate(kinds) if kind == "RD")
    assert "WR" in kinds[:last_read]
    assert counters["writes"] == len(lines)


def test_storage_reset_at_quiescent_points_matches_oracle(monkeypatch):
    """The batched engine reclaims its columns once they pass
    ``_RESET_THRESHOLD`` slots and nothing is in flight (main- and
    full-scale runs cross 2^16).  With the threshold lowered, idle-gapped
    line requests and column drains (held until ``release_lines``, with
    writebacks pushed while held) still match the scalar oracle bitwise,
    and the reset really runs, never while rids are held."""
    import repro.dram.batched as batched_mod
    monkeypatch.setattr(batched_mod, "_RESET_THRESHOLD", 48)
    resets = []
    reset_storage = BatchedController._reset_storage

    def spy(self):
        assert not self._held
        resets.append(len(self._arr))
        reset_storage(self)

    monkeypatch.setattr(BatchedController, "_reset_storage", spy)

    cfg = DRAMConfig(channels=1)
    scalar, batched, slog, blog = _pair(cfg)
    program = _long_program(seed=3, n=400, max_gap=900)
    reqs_s, reqs_b = _requests(cfg, program)
    for (_, _, gap), rs, rb in zip(program, reqs_s, reqs_b):
        if gap > 600:          # an idle gap: the channel empties first
            scalar.drain()
            batched.drain()
        scalar.enqueue(rs)
        batched.enqueue(rb)
    scalar.drain()
    batched.drain()
    assert slog == blog
    assert [(r.start, r.finish, r.row_hit) for r in reqs_s] == \
        [(r.start, r.finish, r.row_hit) for r in reqs_b]
    assert dict(scalar.stats.counters) == dict(batched.stats.counters)
    assert scalar.mean_occupancy() == batched.mean_occupancy()
    line_resets = len(resets)
    assert line_resets >= 3

    program = []
    for seed in range(6):
        traffic = [(n, n % 2 == 0, 5) for n in _rows(cfg, 3, 50 + seed)]
        program.append(("batch", _rows(cfg, 40, seed), 2000, seed % 2 == 0,
                        traffic))
        program.append(("core", seed, True, 3000))
    _assert_batches_equivalent(replace(cfg, channels=2), program)
    assert len(resets) - line_resets >= 4
    assert all(size > 48 for size in resets)
