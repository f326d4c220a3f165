"""The golden harness (tier-1).

Every registered suite re-runs to its committed file bitwise, the one
recursive diff names each problem by its path, and the
``python -m repro golden check|update`` command checks and rewrites the
golden files and writes nothing else.  After an intentional model change,
regenerate with ``python -m repro golden update <suite>`` and commit the
file with the change; EXPERIMENTS.md documents the workflow.
"""

import copy
import dataclasses

import pytest

from repro.__main__ import main
from repro.sim import golden

#: One pinned leaf per suite, and the path the diff must name it by.
LEAVES = {
    "quick": (("IS", "baseline", "cycles"), "IS/baseline.cycles"),
    "memtech": (("cxl", "dx100", "far_serviced"), "cxl/dx100.far_serviced"),
}


@pytest.mark.parametrize("name", sorted(golden.SUITES))
def test_suite_matches_golden_exactly(name):
    snapshot = golden.SUITES[name].run("batched", "batched")
    problems = golden.diff(snapshot, golden.load(name))
    assert not problems, (
        f"{name} metrics drifted from {golden.SUITES[name].path.name} "
        f"(intentional? `python -m repro golden update {name}`):\n  "
        + "\n  ".join(problems))


# ------------------------------------------------------------------ diff

@pytest.mark.parametrize("name", sorted(golden.SUITES))
def test_one_tampered_leaf_is_one_problem_naming_its_path(name):
    keys, path = LEAVES[name]
    pinned = golden.load(name)
    tampered = copy.deepcopy(pinned)
    node = tampered
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] += 1
    assert golden.diff(pinned, pinned) == []
    problems = golden.diff(tampered, pinned)
    assert len(problems) == 1, problems
    assert problems[0].startswith(f"{path}: got "), problems


def test_missing_and_extra_keys_are_each_reported():
    pinned = golden.load("memtech")
    missing = copy.deepcopy(pinned)
    del missing["mixed"]["dx100"]["cycles"]
    assert golden.diff(missing, pinned) == [
        "mixed/dx100.cycles: missing from this run"]
    extra = copy.deepcopy(pinned)
    extra["hbm"] = {"dx100": {"cycles": 1}}
    assert golden.diff(extra, pinned) == ["hbm: not in the golden file"]


# ------------------------------------------------------------------- CLI

def _redirect(monkeypatch, name, path):
    monkeypatch.setitem(golden.SUITES, name,
                        dataclasses.replace(golden.SUITES[name], path=path))


def test_unknown_suite_exits_2_and_lists_the_valid_names(capsys):
    assert main(["golden", "check", "nope"]) == 2
    err = capsys.readouterr().err
    assert "nope" in err
    assert all(name in err for name in golden.SUITES)


def test_check_writes_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["golden", "check", "memtech"]) == 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["memtech"])
def test_update_then_check_reproduces_the_committed_bytes(
        name, tmp_path, monkeypatch):
    committed = golden.SUITES[name].path.read_bytes()
    target = tmp_path / "golden.json"
    _redirect(monkeypatch, name, target)
    assert main(["golden", "update", name]) == 0
    assert main(["golden", "check", name]) == 0
    assert target.read_bytes() == committed


def test_check_exits_1_with_the_problem_list_on_a_tampered_file(
        tmp_path, monkeypatch, capsys):
    pinned = golden.load("memtech")
    pinned["local"]["baseline"]["cycles"] += 1
    _redirect(monkeypatch, "memtech", tmp_path / "golden.json")
    golden.write("memtech", pinned)
    assert main(["golden", "check", "memtech"]) == 1
    err = capsys.readouterr().err
    assert "local/baseline.cycles: got" in err


def test_check_fails_when_the_golden_file_is_missing(
        tmp_path, monkeypatch, capsys):
    _redirect(monkeypatch, "memtech", tmp_path / "absent.json")
    assert main(["golden", "check", "memtech"]) == 1
    assert "no golden file" in capsys.readouterr().err
