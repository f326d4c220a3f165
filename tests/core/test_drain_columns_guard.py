"""The production DX100 drain path enters DRAM as columns.

``DRAMRequest`` is the per-request object of the core/LLC path and of the
scalar DRAM engine.  On the batched engine (the default), the indirect
unit hands each drain to DRAM as columns and reads finish cycles back
from the controllers' finish column, so whole benchmark runs must execute
``BatchedIndirectUnit.execute`` without constructing one.
"""

from dataclasses import replace

import pytest

from repro.common.types import DRAMRequest
from repro.dx100.batched import BatchedIndirectUnit
from repro.sim.runner import run_dx100
from repro.sim.sweep import CONFIG_BUILDERS
from repro.workloads import QUICK_BENCHMARKS


@pytest.fixture
def no_request_in_drains(monkeypatch):
    """Make ``DRAMRequest()`` raise while the indirect unit executes;
    returns the list the guard appends one entry to per executed tile."""
    tiles: list[int] = []
    inside: list[bool] = []
    execute = BatchedIndirectUnit.execute
    init = DRAMRequest.__init__

    def guarded_execute(self, *args, **kwargs):
        tiles.append(1)
        inside.append(True)
        try:
            return execute(self, *args, **kwargs)
        finally:
            inside.pop()

    def guarded_init(self, *args, **kwargs):
        if inside:
            raise AssertionError("DRAMRequest built inside a DX100 drain")
        init(self, *args, **kwargs)

    monkeypatch.setattr(BatchedIndirectUnit, "execute", guarded_execute)
    monkeypatch.setattr(DRAMRequest, "__init__", guarded_init)
    return tiles


@pytest.mark.parametrize("name", ["CG", "XRAGE"])
def test_batched_engine_drains_build_no_request(no_request_in_drains, name):
    config = CONFIG_BUILDERS["dx100"](4)
    assert config.dram.engine == "batched"
    result = run_dx100(QUICK_BENCHMARKS[name](), config)
    assert result.cycles > 0 and result.dram_requests > 0
    assert len(no_request_in_drains) > 0, "no indirect tile ran"


def test_guard_is_not_vacuous(no_request_in_drains):
    """The scalar DRAM engine, the specification, does build one request
    per drained line, so the same patch stops it."""
    config = CONFIG_BUILDERS["dx100"](4)
    config = replace(config, dram=replace(config.dram, engine="scalar"))
    with pytest.raises(AssertionError, match="inside a DX100 drain"):
        run_dx100(QUICK_BENCHMARKS["CG"](), config)
