"""The batched front end runs none of the scalar oracles' walk methods.

Each layer keeps one readable specification (the scalar hierarchy, core
and DX100 units) and one fast engine; the engine owns every method it
runs on the per-access path.  Patching the oracle-only methods to raise
must leave a quick batched baseline, DMP and DX100 run intact, and must
stop the same run on the scalar front end, so the guard is not vacuous.
"""

import pytest

from repro.cache.cache import Cache
from repro.cache.hierarchy import MemoryHierarchy
from repro.cache.mshr import MSHRFile
from repro.cache.prefetcher import StridePrefetcher
from repro.core.ooo import CoreModel
from repro.dx100.indirect_unit import IndirectUnit
from repro.dx100.stream_unit import StreamUnit
from repro.sim.sweep import execute_task, task_grid

ORACLE_ONLY = [
    (MemoryHierarchy, "_access_line"),
    (MemoryHierarchy, "_access_l2"),
    (MemoryHierarchy, "_access_llc"),
    (MemoryHierarchy, "_stall_for_mshr"),
    (Cache, "lookup"),
    (MSHRFile, "lookup"),
    (MSHRFile, "allocate"),
    (StridePrefetcher, "observe"),
    (CoreModel, "step"),
    (CoreModel, "_drain_iq"),
    (CoreModel, "_retire_oldest"),
    (StreamUnit, "_issue_lines"),
    (IndirectUnit, "execute"),
]


@pytest.fixture
def oracle_only_raises(monkeypatch):
    for owner, name in ORACLE_ONLY:
        def forbidden(*args, _name=f"{owner.__name__}.{name}", **kwargs):
            raise AssertionError(f"{_name} ran on the batched path")
        monkeypatch.setattr(owner, name, forbidden)


@pytest.mark.parametrize("mode", ["baseline", "dmp", "dx100"])
def test_batched_front_end_runs_no_oracle_method(oracle_only_raises, mode):
    (task,) = task_grid(["CG"], (mode,), "quick")
    assert task.config.frontend == "batched"
    result, _wall = execute_task(task)
    assert result.cycles > 0 and result.instructions > 0


@pytest.mark.parametrize("mode", ["baseline", "dx100"])
def test_oracle_guard_is_not_vacuous(oracle_only_raises, mode):
    (task,) = task_grid(["CG"], (mode,), "quick", frontend="scalar")
    with pytest.raises(AssertionError, match="ran on the batched path"):
        execute_task(task)
