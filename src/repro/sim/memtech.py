"""Memory-technology comparison scenarios (local DDR vs far memory).

The canonical grid behind ``results/memory_technology`` and the
``remote-smoke`` CI job: one quick benchmark under baseline and DX100 on
each memory technology row —

``local``
    plain DDR4-2400, every line in the local pool (the default config);
``ddr5``
    the DDR5-6400 timing preset, still all-local;
``cxl``
    every line behind the modeled far-memory link
    (:mod:`repro.dram.remote`) at its default latency/bandwidth;
``mixed``
    half the lines far by deterministic line-interleave hash — the
    tiered-memory placement where hot and cold data share the footprint.

Each row reports the pinned :data:`~repro.sim.sweep.GOLDEN_FIELDS`
plus the link's ``far_serviced`` counter, and the ``memtech`` golden
suite (:mod:`repro.sim.golden`) pins them bitwise in
``tests/golden/memory_technology.json`` so a far-tier regression (or an
accidental change to link timing) fails CI the same way the quick-suite
goldens do.  The scalar DRAM engine and the scalar front end must each
reproduce the file exactly (the differential guarantee over the link
path).

Run ``python -m repro golden check memtech`` to diff, and
``python -m repro golden update memtech`` to regenerate after an
intentional model change.
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.config import (
    DRAMConfig, RemoteLinkConfig, SystemConfig, cxl_remote, ddr5_6400,
)
from repro.sim.runner import run_baseline, run_dx100
from repro.sim.sweep import GOLDEN_FIELDS

#: Pinned per-run fields: the sweep goldens' eight, plus the far-tier
#: service count (0 on all-local rows — pinning it catches placement
#: regressions that happen not to move the timing).
MEMTECH_FIELDS = GOLDEN_FIELDS + ("far_serviced",)

#: The technology rows, in report order.
MEMTECH_SCENARIOS = ("local", "ddr5", "cxl", "mixed")

_MODES = ("baseline", "dx100")


def memtech_dram(scenario: str) -> DRAMConfig:
    """The DRAM config for one technology row."""
    if scenario == "local":
        return DRAMConfig()
    if scenario == "ddr5":
        return ddr5_6400()
    if scenario == "cxl":
        return cxl_remote()
    if scenario == "mixed":
        return DRAMConfig(remote=RemoteLinkConfig(
            enabled=True, placement="hash", far_fraction=0.5))
    raise ValueError(
        f"unknown memtech scenario {scenario!r}; "
        f"valid: {', '.join(MEMTECH_SCENARIOS)}")


def run_memtech(benchmark: str = "IS", cores: int = 2,
                engine: str | None = None,
                frontend: str | None = None) -> dict:
    """Run the scenario grid on one quick benchmark.

    Returns ``scenario -> mode -> {field: value}`` over
    :data:`MEMTECH_FIELDS`.  ``engine`` forces the DRAM engine and
    ``frontend`` the cache/core front end (``"scalar"`` replays the grid
    on the oracle; the result must be bitwise identical).
    """
    from repro.workloads import QUICK_BENCHMARKS
    snapshot: dict[str, dict[str, dict]] = {}
    for scenario in MEMTECH_SCENARIOS:
        dram = memtech_dram(scenario)
        if engine is not None:
            dram = replace(dram, engine=engine)
        rows: dict[str, dict] = {}
        for mode in _MODES:
            builder = (SystemConfig.dx100_scaled if mode == "dx100"
                       else SystemConfig.baseline_scaled)
            config = replace(builder(cores), dram=dram)
            if frontend is not None:
                config = replace(config, frontend=frontend)
            wl = QUICK_BENCHMARKS[benchmark]()
            run = run_dx100 if mode == "dx100" else run_baseline
            result = run(wl, config, warm=False)
            row = {f: getattr(result, f) for f in GOLDEN_FIELDS}
            row["far_serviced"] = int(result.extra.get("far_serviced", 0))
            rows[mode] = row
        snapshot[scenario] = rows
    return snapshot
