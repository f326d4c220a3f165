"""Replay the CI mypy check locally when mypy is installed.

The batched engine must keep presenting the scalar oracle's interface,
so ``repro/dram`` plus the sweep executor (``repro/sim``), the shared
value types (``repro/common``), and — since the front-end split — the
cache hierarchy and core models
(``repro/cache``, ``repro/core``, whose batched twins mirror the scalar
signatures) are type-checked in CI.  Environments without mypy skip this
test rather than fail — the CI job is the enforcement point.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


def _have_mypy() -> bool:
    try:
        import mypy  # noqa: F401
        return True
    except ImportError:
        return shutil.which("mypy") is not None


@pytest.mark.skipif(not _have_mypy(), reason="mypy not installed")
def test_checked_packages_typecheck():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini",
         "src/repro/dram", "src/repro/sim", "src/repro/common",
         "src/repro/cache", "src/repro/core"],
        cwd=REPO, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
