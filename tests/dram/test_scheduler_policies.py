"""Scheduler policies: direction grouping, aging, FCFS fallback."""

import pytest

from repro.common import DRAMConfig, DRAMRequest
from repro.dram import AddressMapper, FRFCFS, FCFS, make_scheduler
from repro.dram.bank import BankState
from repro.dram.scheduler import AGE_CAP


def _entry(mapper, row, col, arrival, is_write=False):
    addr = mapper.compose(row=row, column=col)
    req = DRAMRequest(addr, is_write, arrival=arrival)
    return req, mapper.map(addr)


@pytest.fixture()
def mapper():
    return AddressMapper(DRAMConfig(channels=1))


def _open_bank(coord):
    bank = BankState()
    bank.activate(coord.row, 0, DRAMConfig().timing)
    return {coord.flat_bank: bank}


def test_frfcfs_prefers_row_hit(mapper):
    sched = FRFCFS()
    miss = _entry(mapper, row=9, col=0, arrival=0)
    hit = _entry(mapper, row=1, col=1, arrival=5)
    banks = _open_bank(hit[1])
    assert sched.pick([miss, hit], banks) == 1


def test_frfcfs_groups_by_direction(mapper):
    sched = FRFCFS()
    read_hit = _entry(mapper, row=1, col=0, arrival=0, is_write=False)
    write_hit = _entry(mapper, row=1, col=1, arrival=1, is_write=True)
    banks = _open_bank(read_hit[1])
    # Bus last did writes: the (younger) write hit is preferred.
    assert sched.pick([read_hit, write_hit], banks,
                      last_was_write=True) == 1
    assert sched.pick([read_hit, write_hit], banks,
                      last_was_write=False) == 0


def test_frfcfs_ages_starved_requests(mapper):
    sched = FRFCFS()
    old_miss = _entry(mapper, row=9, col=0, arrival=0)
    young_hit = _entry(mapper, row=1, col=1, arrival=500)
    banks = _open_bank(young_hit[1])
    # Young hit preferred while the miss has waited no more than the cap...
    assert sched.pick([old_miss, young_hit], banks, now=AGE_CAP) == 1
    # ...but the starved miss wins past the age cap.
    assert sched.pick([old_miss, young_hit], banks, now=AGE_CAP + 1) == 0


def test_fcfs_ignores_row_state(mapper):
    sched = FCFS()
    hit = _entry(mapper, row=1, col=1, arrival=5)
    miss = _entry(mapper, row=9, col=0, arrival=0)
    banks = _open_bank(hit[1])
    assert sched.pick([hit, miss], banks) == 1  # strictly oldest


def test_make_scheduler():
    assert isinstance(make_scheduler("frfcfs"), FRFCFS)
    assert isinstance(make_scheduler("fcfs"), FCFS)
