"""Cache-key field coverage: no config field may silently alias.

The :class:`~repro.sim.sweep.RunCache` is content-addressed by
``SweepTask.key()``, which folds ``asdict(config)`` into the hash.  That
makes coverage *structural* — but only if every field actually survives
the round trip into the payload.  These tests walk the live dataclass
tree (so a field added to any config class is covered the day it lands):

* mutating **any** leaf field of ``SystemConfig`` — through every nested
  dataclass (``CoreConfig``, ``CacheConfig`` x3, ``DRAMConfig``,
  ``DDR4Timing``, ``RemoteLinkConfig``, ``DX100Config``) — must change
  the cache key;
* a stored result must be a cache **miss** under the mutated config (the
  regression the key test abstracts).
"""

import dataclasses

import pytest

from repro.common.config import (
    DDR4Timing, DRAMConfig, RemoteLinkConfig, SystemConfig,
)
from repro.sim.sweep import RunCache, SweepTask, execute_task


def _mutate(value):
    """A same-typed, different value for one leaf field."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        # Doubling (not +1) keeps the size/ways/line divisibility the
        # cache configs validate at construction.
        return value * 2 if value else 1
    if isinstance(value, float):
        return value + 1.0
    if isinstance(value, str):
        return value + "_mutated"
    raise TypeError(f"unhandled leaf type {type(value)!r}")


#: Leaves whose values are checked at construction: a mangled value would
#: raise, so they take a different valid value instead.
_VALID_ALTERNATIVES = {"page_policy": "closed", "placement": "hash",
                       "far_fraction": 0.5, "scheduler": "fcfs",
                       "engine": "scalar", "frontend": "scalar"}


def _leaf_paths(obj, prefix=()):
    """Every (path, value) of a nested-dataclass tree, leaves only."""
    out = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        path = prefix + (f.name,)
        if dataclasses.is_dataclass(value):
            out.extend(_leaf_paths(value, path))
        else:
            out.append((path, value))
    return out


def _with_mutation(obj, path):
    """Rebuild a frozen config tree with the leaf at ``path`` mutated."""
    name, rest = path[0], path[1:]
    value = getattr(obj, name)
    if rest:
        new = _with_mutation(value, rest)
    else:
        new = _VALID_ALTERNATIVES.get(name, _mutate(value))
    return dataclasses.replace(obj, **{name: new})


def _base_config() -> SystemConfig:
    # The dx100 preset: every nested dataclass present (baseline's
    # ``dx100=None`` would hide the DX100Config subtree from the walk).
    return SystemConfig.dx100_system()


def _task(config: SystemConfig) -> SweepTask:
    return SweepTask(benchmark="IS", mode="dx100", scale="quick",
                     config=config)


ALL_PATHS = [p for p, _ in _leaf_paths(_base_config())]


def test_walk_reaches_every_required_subtree():
    """The structural guarantee is only as good as the walk: assert the
    classes the issue names (and the new RemoteLinkConfig) all contribute
    leaves, so a refactor that detaches one fails loudly."""
    tops = {p[0] for p in ALL_PATHS}
    assert {"core", "l1", "l2", "llc", "dram", "dx100"} <= tops
    dram_leaves = {p for p in ALL_PATHS if p[0] == "dram"}
    assert any(p[1] == "timing" for p in dram_leaves)
    assert any(p[1] == "remote" for p in dram_leaves)
    # Field-count floors: every current field of the named classes shows
    # up as a leaf (nested classes via their own leaves).
    assert sum(1 for p in ALL_PATHS if p[:2] == ("dram", "timing")) == \
        len(dataclasses.fields(DDR4Timing))
    assert sum(1 for p in ALL_PATHS if p[:2] == ("dram", "remote")) == \
        len(dataclasses.fields(RemoteLinkConfig))
    flat_dram = [p for p in ALL_PATHS if p[0] == "dram" and len(p) == 2]
    nested = sum(1 for f in dataclasses.fields(DRAMConfig)
                 if dataclasses.is_dataclass(f.default_factory()
                                             if f.default_factory
                                             is not dataclasses.MISSING
                                             else f.default))
    assert len(flat_dram) == len(dataclasses.fields(DRAMConfig)) - nested


@pytest.mark.parametrize("path", ALL_PATHS,
                         ids=[".".join(p) for p in ALL_PATHS])
def test_every_config_field_changes_the_cache_key(path):
    base = _task(_base_config()).key()
    mutated = _task(_with_mutation(_base_config(), path)).key()
    assert mutated != base, f"field {'.'.join(path)} does not reach the key"


def test_mutated_config_misses_the_run_cache(tmp_path):
    """End to end: a stored result is found under its own key and NOT
    found after a single-field edit — including a field of the newest
    nested config (the link latency)."""
    cache = RunCache(tmp_path)
    task = _task(_base_config())
    result, _ = execute_task(task)
    cache.store(task.key(), task, result)
    assert cache.load(task.key()) is not None
    for path in [("dram", "remote", "latency"),
                 ("dram", "timing", "tRFC"),
                 ("dram", "channels"),
                 ("cores",)]:
        edited = _task(_with_mutation(_base_config(), path))
        assert cache.load(edited.key()) is None, \
            f"edit to {'.'.join(path)} hit the cache"
