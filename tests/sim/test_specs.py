"""The DRAM presets ``run --dram`` accepts: its choices are the config
layer's preset registry, so adding a preset never touches the CLI."""

import pytest

from repro.__main__ import _parser, main
from repro.common.config import DRAM_PRESETS


def _run_dram_choices():
    sub = next(a for a in _parser()._actions if a.dest == "command")
    run = sub.choices["run"]
    return next(a for a in run._actions if a.dest == "dram").choices


def test_dram_choices_derive_from_the_preset_registry():
    """The allowed set IS the registry (the hardcoded-set bug this pins:
    ``cxl`` existed in the config but the grid front end rejected it)."""
    choices = _run_dram_choices()
    assert set(choices) == set(DRAM_PRESETS)
    assert "cxl" in choices


def test_unknown_dram_error_enumerates_the_registry(capsys):
    """An unknown ``--dram`` is a usage error naming every preset, cxl
    included."""
    with pytest.raises(SystemExit) as exit_:
        main(["run", "IS", "--quick", "--dram", "ddr4", "hbm"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert all(repr(name) in err for name in DRAM_PRESETS)
