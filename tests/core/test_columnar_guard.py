"""The production core path reads trace columns and builds no MemOp.

``MemOp`` is the scalar specification's per-op view.  The batched front
end (the default) must run a whole benchmark without constructing one, in
baseline mode and in DX100 mode (whose schedule interleaves residual core
work with the accelerator program).
"""

from dataclasses import replace

import pytest

from repro.common.types import MemOp
from repro.sim.runner import run_baseline, run_dx100
from repro.sim.sweep import CONFIG_BUILDERS
from repro.workloads import QUICK_BENCHMARKS


@pytest.fixture
def no_memop(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError("MemOp built on the production path")
    monkeypatch.setattr(MemOp, "__init__", forbidden)


@pytest.mark.parametrize("run, mode", [(run_baseline, "baseline"),
                                       (run_dx100, "dx100")])
def test_batched_front_end_builds_no_memop(no_memop, run, mode):
    config = CONFIG_BUILDERS[mode](4)
    assert config.frontend == "batched"
    result = run(QUICK_BENCHMARKS["CG"](), config)
    assert result.cycles > 0 and result.instructions > 0


def test_guard_is_not_vacuous(no_memop):
    """The scalar specification does read ops as MemOp views, so the same
    patch stops it."""
    config = replace(CONFIG_BUILDERS["baseline"](4), frontend="scalar")
    with pytest.raises(AssertionError, match="production path"):
        run_baseline(QUICK_BENCHMARKS["CG"](), config)
