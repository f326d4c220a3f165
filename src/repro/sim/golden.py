"""One golden harness for every pinned result grid.

Two named suites pin the numbers this repository reproduces:

``quick``
    the quick benchmark suite under baseline/dmp/dx100 — DX100's
    Fig. 9-12 speedups (:func:`repro.sim.sweep.golden_snapshot`);
``memtech``
    quick IS on local DDR4, DDR5, all-far CXL and mixed placement — the
    far-memory thesis (:func:`repro.sim.memtech.run_memtech`).

Every golden file has one layout, ``{"_comment", "metrics"}``, and every
suite is compared by one exact recursive :func:`diff`.  The command line::

    python -m repro golden check [suite ...] [--engine E] [--frontend F]
    python -m repro golden update [suite ...]

re-runs the named suites (both by default) and either diffs them
against their files (exit 1 on any mismatch) or rewrites the files after
an intentional model change.  Neither reads nor writes the run cache, and
``check`` writes nothing at all.  The suites' runners are imported
lazily, so :mod:`repro.sim.sweep` can import this module freely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"


@dataclass(frozen=True)
class Suite:
    """One golden-pinned grid: where its file lives and how to re-run it.

    ``run(engine, frontend)`` returns the suite's snapshot, a nested dict
    of JSON-exact values; ``None`` keeps the configs' own engines.
    """

    name: str
    path: Path
    comment: str
    run: Callable[[str | None, str | None], dict]


def _run_quick(engine: str | None, frontend: str | None) -> dict:
    from repro.sim.sweep import golden_snapshot, main_sweep_tasks, run_sweep
    tasks = main_sweep_tasks(quick=True, engine=engine, frontend=frontend)
    return golden_snapshot(run_sweep(tasks, cache=False))


def _run_memtech(engine: str | None, frontend: str | None) -> dict:
    from repro.sim.memtech import run_memtech
    return run_memtech(engine=engine, frontend=frontend)


def _pin_comment(what: str, name: str) -> str:
    return (f"{what}  Regenerate with `python -m repro golden update "
            f"{name}` after an intentional model change.")


SUITES: dict[str, Suite] = {suite.name: suite for suite in (
    Suite("quick", GOLDEN_DIR / "quick_suite.json", _pin_comment(
        "Golden RunResult metrics for the REPRO_QUICK suite under "
        "baseline/dmp/dx100.", "quick"), _run_quick),
    Suite("memtech", GOLDEN_DIR / "memory_technology.json", _pin_comment(
        "Golden metrics for the memory-technology scenario grid (quick IS "
        "under baseline/dx100 on local DDR4, DDR5, all-far CXL, and mixed "
        "placement).", "memtech"), _run_memtech),
)}


_MISSING = object()


def diff(snapshot: dict, golden: dict, prefix: str = "") -> list[str]:
    """Exact recursive diff; an empty list means bitwise identical.

    A problem's path joins nested keys with ``/`` and the leaf with ``.``
    (``IS/baseline.cycles``).
    """
    problems: list[str] = []
    for key in sorted(set(snapshot) | set(golden)):
        got = snapshot.get(key, _MISSING)
        want = golden.get(key, _MISSING)
        nested = isinstance(want if got is _MISSING else got, dict)
        path = f"{prefix}{'/' if nested else '.'}{key}" if prefix else str(key)
        if got is _MISSING:
            problems.append(f"{path}: missing from this run")
        elif want is _MISSING:
            problems.append(f"{path}: not in the golden file")
        elif isinstance(got, dict) and isinstance(want, dict):
            problems += diff(got, want, path)
        elif got != want:
            problems.append(f"{path}: got {got!r}, golden {want!r}")
    return problems


def load(name: str) -> dict:
    """The committed golden metrics of suite ``name``."""
    return json.loads(SUITES[name].path.read_text())["metrics"]


def write(name: str, snapshot: dict) -> Path:
    """Pin ``snapshot`` as suite ``name``'s golden file; returns its path."""
    suite = SUITES[name]
    payload = {"_comment": suite.comment, "metrics": snapshot}
    suite.path.parent.mkdir(parents=True, exist_ok=True)
    suite.path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")
    return suite.path
