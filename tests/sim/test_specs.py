"""The campaign spec DSL: grammar, grid expansion, and the campaign
command that runs the expanded grid on the sweep executor."""

from dataclasses import asdict

import pytest

from repro.common.config import ddr5_6400
from repro.sim.specs import (
    SpecError, expand_range, expand_serve_params, expand_sweep_tasks,
    expand_values, parse_atom, parse_spec, task_labels,
)
from repro.sim.sweep import MODES, main_sweep_tasks, run_sweep


# ------------------------------------------------------------------ grammar

def test_atoms_parse_suffixes_and_strings():
    assert parse_atom("4") == 4
    assert parse_atom("4k") == 4096
    assert parse_atom("2m") == 2 * 1024 ** 2
    assert parse_atom("1g") == 1024 ** 3
    assert parse_atom("ddr5") == "ddr5"
    assert parse_atom("G*") == "G*"
    with pytest.raises(SpecError):
        parse_atom("")


def test_ranges_double_geometrically_and_keep_an_off_chain_hi():
    assert expand_range(1, 8) == [1, 2, 4, 8]
    assert expand_range(4, 4) == [4]
    assert expand_range(4096, 48 * 1024) == [
        4096, 8192, 16384, 32768, 48 * 1024]
    with pytest.raises(SpecError):
        expand_range(0, 8)
    with pytest.raises(SpecError):
        expand_range(8, 4)


def test_values_compose_commas_and_ranges_with_order_preserving_dedupe():
    assert expand_values("1:4,2,16") == [1, 2, 4, 16]
    assert expand_values("ddr4,ddr5") == ["ddr4", "ddr5"]
    assert expand_values("4k:8k") == [4096, 8192]


def test_parse_spec_validates_keys_choices_and_duplicates():
    spec = parse_spec("benchmarks=IS,CG dram=ddr4,ddr5 tile=4k:8k")
    assert spec["benchmarks"] == ["IS", "CG"]
    assert spec["dram"] == ["ddr4", "ddr5"]
    assert spec["tile"] == [4096, 8192]

    with pytest.raises(SpecError, match="unknown dimension"):
        parse_spec("bogus=1")
    with pytest.raises(SpecError, match="given twice"):
        parse_spec("dram=ddr4 dram=ddr5")
    with pytest.raises(SpecError, match="takes"):
        parse_spec("dram=ddr6")
    with pytest.raises(SpecError, match="takes integers"):
        parse_spec("tile=big")
    with pytest.raises(SpecError, match="not key=value"):
        parse_spec("benchmarks")


def test_aliases_normalize_to_canonical_dimensions():
    assert parse_spec("mode=dx100")["modes"] == ["dx100"]
    assert parse_spec("configs=baseline")["modes"] == ["baseline"]
    assert parse_spec("tiles=4k")["tile"] == [4096]
    assert parse_spec("tenant=2")["tenants"] == [2]


def test_benchmark_globs_match_the_registry_in_order():
    tasks = expand_sweep_tasks(parse_spec("benchmarks=G* modes=baseline "
                                          "scale=quick"))
    assert [t.benchmark for t in tasks] == ["GZZ", "GZZI", "GZP", "GZPI"]
    with pytest.raises(SpecError, match="matches nothing"):
        expand_sweep_tasks(parse_spec("benchmarks=NOPE*"))


# ---------------------------------------------------------------- expansion

def test_empty_spec_is_the_full_default_grid():
    tasks = expand_sweep_tasks(parse_spec(""))
    assert len(tasks) == 12 * len(MODES)
    assert all(t.scale == "main" for t in tasks)


def test_full_scale_is_a_scale_value():
    """``scale=full`` selects the paper-sized registry: the same tasks
    ``run --scale full --all`` builds."""
    from repro.sim.sweep import task_grid
    tasks = expand_sweep_tasks(parse_spec("scale=full modes=dx100"))
    assert [(t.benchmark, t.scale) for t in tasks] == \
        [("IS", "full"), ("CG", "full"), ("XRAGE", "full")]
    assert tasks == task_grid(None, ("dx100",), "full")
    with pytest.raises(SpecError, match="matches nothing"):
        expand_sweep_tasks(parse_spec("benchmarks=BFS scale=full"))


def test_tile_axis_only_replicates_dx100_tasks():
    """baseline/dmp have no DX100 config, so the tile axis collapses for
    them instead of producing duplicate cache keys."""
    tasks = expand_sweep_tasks(parse_spec(
        "benchmarks=IS tile=4k:16k scale=quick"))
    by_mode: dict[str, int] = {}
    for t in tasks:
        by_mode[t.mode] = by_mode.get(t.mode, 0) + 1
    assert by_mode == {"baseline": 1, "dmp": 1, "dx100": 3}
    dx_tiles = {t.config.dx100.tile_elems for t in tasks
                if t.mode == "dx100"}
    assert dx_tiles == {4096, 8192, 16384}


def test_dram_axis_selects_presets():
    tasks = expand_sweep_tasks(parse_spec(
        "benchmarks=IS modes=baseline dram=ddr4,ddr5 scale=quick"))
    timings = {t.config.dram.timing.tCK for t in tasks}
    from repro.common.config import DRAMConfig
    assert timings == {DRAMConfig().timing.tCK, ddr5_6400().timing.tCK}


def test_dram_choices_derive_from_the_preset_registry():
    """The grammar's allowed set IS the config layer's registry — adding
    a preset must never require touching the DSL (the hardcoded-set bug
    this pins: ``cxl`` existed in the config but the spec rejected it)."""
    from repro.common.config import DRAM_PRESETS
    from repro.sim.specs import _CHOICES
    assert _CHOICES["dram"] == set(DRAM_PRESETS)
    assert "cxl" in _CHOICES["dram"]


def test_unknown_dram_error_enumerates_the_registry():
    """The error path names every valid preset, cxl included."""
    with pytest.raises(SpecError, match=r"cxl.*ddr4.*ddr5|takes.*cxl"):
        parse_spec("dram=hbm")


def test_dram_cxl_expands_with_the_remote_link_enabled():
    tasks = expand_sweep_tasks(parse_spec(
        "benchmarks=IS modes=baseline,dx100 dram=cxl scale=quick"))
    assert tasks, "cxl must be a legal dram value"
    for task in tasks:
        assert task.config.dram.remote.enabled


def test_serve_axis_accepts_cxl():
    params = expand_serve_params(parse_spec("tenants=2 dram=cxl"))
    assert [p["dram"] for p in params] == ["cxl"]


def test_serve_axis_expands_tenants_by_dram_by_aggressor():
    params = expand_serve_params(parse_spec("tenants=1:4 dram=ddr4,ddr5"))
    assert len(params) == 3 * 2       # tenants 1,2,4 x two DRAM presets
    assert {p["tenants"] for p in params} == {1, 2, 4}

    with pytest.raises(SpecError, match="out of range"):
        expand_serve_params(parse_spec("tenants=2 aggressor=5"))
    assert expand_serve_params(parse_spec("benchmarks=IS")) == []


def test_tenants_alone_is_a_serving_grid_only(capsys):
    """The documented serving grid expands serve tasks only; any
    sweep-only key brings the benchmark grid back beside it."""
    from repro.__main__ import main

    spec = parse_spec("tenants=1:8 dram=ddr4,ddr5")
    assert expand_sweep_tasks(spec) == []
    assert len(expand_serve_params(spec)) == 8
    assert main(["campaign", "tenants=1:8 dram=ddr4,ddr5", "--dry-run"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "8 task(s):"
    assert all(line.strip().startswith("serve.") for line in lines[1:])

    both = parse_spec("benchmarks=IS tenants=2")
    assert [t.mode for t in expand_sweep_tasks(both)] == list(MODES)
    assert len(expand_serve_params(both)) == 1


def test_task_labels_are_readable_and_unique():
    spec = parse_spec("benchmarks=IS modes=dx100 tile=4k:8k scale=quick "
                      "tenants=2 aggressor=1")
    labels = task_labels(expand_sweep_tasks(spec), expand_serve_params(spec))
    assert labels == ["IS.quick.dx100", "IS.quick.dx100.2",
                      "serve.t2.ddr4.a1"]


# ----------------------------------------------------------------- campaign

def test_campaign_grid_is_the_sweep_grid():
    """``campaign 'benchmarks=IS,CG scale=quick'`` and ``run --quick IS CG
    --configs baseline dmp dx100`` schedule the same tasks: equal cache
    keys, so they share run-cache entries and give the same RunResults."""
    campaign = expand_sweep_tasks(parse_spec("benchmarks=IS,CG scale=quick"))
    sweep = main_sweep_tasks(quick=True, benchmarks=["IS", "CG"])
    assert [t.key() for t in campaign] == [t.key() for t in sweep]


def test_campaign_cli_runs_on_the_sweep_cache(tmp_path, capsys):
    """A campaign stores its sweep results in the run cache, so rerunning
    the same spec settles every sweep task from the cache."""
    from repro.__main__ import main

    spec = "benchmarks=IS modes=baseline,dx100 scale=quick tenants=1"
    argv = ["campaign", spec, "--jobs", "1", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "3 task(s)" in first and "0 cached, 3 simulated" in first
    assert main(argv) == 0
    again = capsys.readouterr().out
    assert "2 cached, 1 simulated" in again
    assert "IS.quick.dx100" in again and "serve.t1.ddr4" in again

    cached = run_sweep(expand_sweep_tasks(parse_spec(spec)), jobs=1,
                       cache_dir=tmp_path)
    direct = run_sweep(expand_sweep_tasks(parse_spec(spec)), jobs=1,
                       cache=False)
    assert cached.cache_hits == 2
    assert [asdict(r.result) for r in cached.runs] == \
        [asdict(r.result) for r in direct.runs]


def test_campaign_cli_rejects_bad_input(capsys):
    from repro.__main__ import main

    assert main(["campaign", "bogus=1"]) == 2
    assert "bad spec" in capsys.readouterr().err
    assert main(["campaign", "scale=quick", "--jobs", "0"]) == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err
