"""The command-stream auditor itself: wiring, reporting, and detection.

Legality of the *real* controller is covered by
``test_timing_legality.py``; these tests make sure the auditor is not
vacuous — that it attaches through the observer hook, reports violations
with command context, and *detects* seeded protocol bugs (mutation-style:
a controller with a constraint deliberately dropped must fail loudly).
"""

import pytest

from repro.common import DDR4Timing, DRAMConfig, DRAMRequest
from repro.common.config import ddr5_6400
from repro.dram import (AddressMapper, CommandAuditor, DRAMSystem,
                        MemoryController, TimingViolationError, audit_log)
from repro.dram.bank import BankState

T = DDR4Timing()
BANK = (0, 0, 0, 0)


def _drive(ctrl, n=64, stride=4096, write_every=2):
    for i in range(n):
        ctrl.enqueue(DRAMRequest((i * stride) & ~63,
                                 write_every and i % write_every == 1,
                                 arrival=i))
    ctrl.drain()


# ---------------------------------------------------------------- wiring

def test_auditor_attaches_via_observer_hook():
    cfg = DRAMConfig(channels=1)
    ctrl = MemoryController(0, cfg, AddressMapper(cfg))
    auditor = CommandAuditor().attach(ctrl)
    assert auditor.observe in ctrl.command_observers
    assert auditor.timing is ctrl.timing  # adopted from the controller
    _drive(ctrl)
    assert auditor.commands_seen > 0
    assert auditor.ok
    auditor.assert_clean()  # no-op on a clean stream


def test_observer_and_log_recorder_coexist():
    cfg = DRAMConfig(channels=1)
    ctrl = MemoryController(0, cfg, AddressMapper(cfg))
    log: list[tuple] = []
    ctrl.command_observers.append(
        lambda kind, cycle, bank, row: log.append((kind, cycle, bank, row)))
    auditor = CommandAuditor(cfg.timing).attach(ctrl)
    _drive(ctrl, n=16)
    assert auditor.commands_seen == len(log)
    # Replaying the recorded log reproduces the streaming verdict.
    assert audit_log(log, cfg.timing) == []


def test_dram_system_audit_knob():
    from dataclasses import replace
    system = DRAMSystem(replace(DRAMConfig(), audit=True))
    assert system.auditor is not None
    for i in range(128):
        system.access(i * 64, False, arrival=i)
    system.drain()
    assert system.auditor.commands_seen > 0
    assert system.audit_violations() == []
    system.assert_audit_clean()


def test_dram_system_audit_off_by_default():
    system = DRAMSystem(DRAMConfig())
    assert system.auditor is None
    assert system.audit_violations() == []
    system.assert_audit_clean()  # no-op


def test_sim_system_audit_passthrough():
    from dataclasses import replace
    from repro.common import SystemConfig
    from repro.sim.system import SimSystem
    config = SystemConfig.baseline_scaled()
    system = SimSystem(replace(config, dram=replace(config.dram, audit=True)))
    assert system.dram.auditor is not None


def test_ddr5_closed_page_audits_clean():
    from dataclasses import replace
    cfg = replace(ddr5_6400(), page_policy="closed", audit=True)
    system = DRAMSystem(cfg)
    for i in range(512):
        system.access(i * 64, i % 3 == 1, arrival=i)
    system.drain()
    system.assert_audit_clean()


# ------------------------------------------------------------- detection

def seeded_log_trwr_violation():
    """A WR followed by a PRE inside the write-recovery window.

    PRE at tRAS satisfies the ACT->PRE constraint but lands only
    tRAS - tRCD = 64 cycles after the WR, inside the 88-cycle
    tCWL+tBL+tWR recovery window."""
    return [
        ("ACT", 0, BANK, 7),
        ("WR", T.tRCD, BANK, 7),
        ("PRE", T.tRAS, BANK, 7),   # tRAS ok, tWR violated
    ]


def test_auditor_detects_seeded_twr_violation():
    violations = audit_log(seeded_log_trwr_violation(), T)
    assert [v.rule for v in violations] == ["tWR"]
    v = violations[0]
    assert v.command.kind == "PRE"
    assert v.required == T.tCWL + T.tBL + T.tWR
    assert v.slack > 0
    # The report carries command context, not a bare assert.
    text = str(v)
    assert "PRE" in text and "tWR" in text and "cycles after" in text


def test_strict_auditor_raises_with_context():
    auditor = CommandAuditor(T, strict=True)
    with pytest.raises(TimingViolationError) as exc:
        auditor.check_log(seeded_log_trwr_violation())
    assert exc.value.violation.rule == "tWR"


def test_mutated_controller_ignoring_twr_fails_audit(monkeypatch):
    """Mutation test: drop the tWR update (the exact shape of the fixed
    closed-page bug) and the auditor must fail loudly."""
    monkeypatch.setattr(BankState, "column_write",
                        lambda self, t_col, timing: None)
    cfg = DRAMConfig(channels=1, page_policy="closed")
    ctrl = MemoryController(0, cfg, AddressMapper(cfg))
    auditor = CommandAuditor(cfg.timing).attach(ctrl)
    _drive(ctrl, n=8)
    assert not auditor.ok
    assert any(v.rule == "tWR" for v in auditor.violations)
    with pytest.raises(TimingViolationError):
        auditor.assert_clean()


def test_mutated_controller_ignoring_bus_fails_audit(monkeypatch):
    """Drop the channel bus serialization; a row-hit stream then issues
    back-to-back columns and must trip the tCCD / data-bus checks."""
    from repro.dram.bank import ChannelBusState
    monkeypatch.setattr(ChannelBusState, "earliest_col",
                        lambda self, bankgroup, is_write, timing: 0)
    cfg = DRAMConfig(channels=1)
    ctrl = MemoryController(0, cfg, AddressMapper(cfg))
    auditor = CommandAuditor(cfg.timing).attach(ctrl)
    _drive(ctrl, n=64, stride=64, write_every=0)
    rules = {v.rule for v in auditor.violations}
    assert rules & {"tCCD_S", "tCCD_L", "data-bus-overlap"}


def test_auditor_detects_protocol_inconsistencies():
    aud = CommandAuditor(T)
    aud.check_log([
        ("ACT", 0, BANK, 1),
        ("RD", T.tRCD, BANK, 2),              # wrong row
        ("PRE", T.tRAS + T.tRTP + T.tRCD, BANK, 1),
        ("RD", T.tRAS + T.tRTP + T.tRCD + 1, BANK, 1),  # bank closed
    ])
    rules = [v.rule for v in aud.violations]
    assert "row-mismatch" in rules
    assert "col-on-closed-bank" in rules


def test_auditor_detects_data_bus_overlap():
    # Two reads tCCD_L apart are bus-legal; closer bursts are not.
    bank2 = (0, 0, 1, 0)
    aud = CommandAuditor(T)
    aud.check_log([
        ("ACT", 0, BANK, 0),
        ("ACT", T.tRRD_S, bank2, 0),
        ("RD", T.tRCD, BANK, 0),
        ("RD", T.tRCD + T.tCCD_S - 2, bank2, 0),  # violates tCCD_S too
    ])
    rules = {v.rule for v in aud.violations}
    assert "tCCD_S" in rules
    assert "data-bus-overlap" in rules


# ---------------------------------------------------------- rank scoping

def test_trrd_tfaw_scoped_per_rank_not_per_channel():
    """Back-to-back ACTs in *different ranks* of one channel are legal at
    any spacing; the old channel-scoped checker flagged these."""
    rank0 = (0, 0, 0, 0)
    rank1 = (0, 1, 0, 0)
    log = [("ACT", 0, rank0, 0), ("ACT", 1, rank1, 0)]
    assert audit_log(log, T) == []
    # Same rank at the same spacing *is* a violation.
    bank_b = (0, 0, 1, 0)   # other bank group, same rank
    log = [("ACT", 0, rank0, 0), ("ACT", 1, bank_b, 0)]
    assert [v.rule for v in audit_log(log, T)] == ["tRRD_S"]


def test_tfaw_counts_four_activates_within_one_rank():
    T4 = T
    banks_r0 = [(0, 0, bg, 0) for bg in range(4)] + [(0, 0, 0, 1)]
    t = 0
    log = []
    for bank in banks_r0[:4]:
        log.append(("ACT", t, bank, 0))
        t += T4.tRRD_S
    # Fifth ACT in the same rank, inside the tFAW window of the first.
    log.append(("ACT", log[0][1] + T4.tFAW - 1, banks_r0[4], 0))
    assert any(v.rule == "tFAW" for v in audit_log(log, T4))
    # The same fifth ACT in another rank is unconstrained.
    legal = log[:4] + [("ACT", log[0][1] + T4.tFAW - 1, (0, 1, 0, 0), 0)]
    assert audit_log(legal, T4) == []


# ------------------------------------------------------------- reporting

def test_report_and_recording_cap():
    aud = CommandAuditor(T, max_recorded=2)
    bad = []
    for i in range(5):
        bank = (0, 0, 0, i % 4)
        # Widely spaced so each RD trips *only* col-on-closed-bank.
        bad.append(("RD", i * 1000, bank, 0))
    aud.check_log(bad)
    assert aud.violation_count == 5
    assert len(aud.violations) == 2  # capped, count is not
    text = aud.report(limit=1)
    assert "5 violation(s)" in text
    assert "more" in text
