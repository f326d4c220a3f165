"""Declarative campaign spec DSL (the spack-style variant grammar).

A campaign spec is a single line of ``key=values`` clauses::

    benchmarks=IS,CG dram=ddr4,ddr5 tile=4k:64k tenants=1:8

Each clause names one *dimension*; the campaign grid is the cartesian
product of every dimension's values, deduplicated (a ``tile`` point only
exists for the dx100 configuration, so baseline/dmp tasks collapse across
the tile axis instead of replicating).  Value lists compose three forms:

* **commas** — ``ddr4,ddr5`` enumerates literal values;
* **ranges** — ``lo:hi`` expands geometrically by doubling from ``lo``
  until ``hi`` (``1:8`` -> 1,2,4,8; a ``hi`` off the doubling chain is
  included as the final point, so ``4k:48k`` -> 4k,8k,16k,32k,48k);
* **suffixes** — integers accept ``k``/``m``/``g`` (powers of 1024);
* **globs** — benchmark names match ``fnmatch`` patterns against the
  scale's registry (``G*`` selects GZZ, GZZI, GZP, GZPI; at
  ``scale=full`` only IS, CG and XRAGE are sized).

Dimensions (all optional; a spec of ``""`` is the full default grid):

===========  ==================================================  =========
key          values                                              default
===========  ==================================================  =========
benchmarks   registry names or globs                             all 12
modes        baseline, dmp, dx100 (alias: ``configs``)           all three
dram         DRAM_PRESETS registry: ddr4, ddr5, cxl              ddr4
tile         DX100 tile elements (dx100 tasks only)              config
cores        core counts                                         4
scale        quick, main, full                                   main
engine       batched, scalar (DRAM engine override)              config
frontend     batched, scalar (simulation front-end override)     config
sample       timeline sampling period in cycles                  0 (off)
tenants      serving-layer tenant counts (opens the serve axis)  --
aggressor    tenant index flooding the serve runs (-1 = none)    -1
===========  ==================================================  =========

``tenants`` adds *serve tasks* to the campaign — multi-tenant QoS runs
(:func:`repro.serve.serve_run`) expanded over ``tenants x dram x
aggressor``.  The benchmark/tile axes do not apply to synthetic tenant
streams.  A spec that sets ``tenants`` and none of the sweep-only keys
(:data:`SWEEP_ONLY`) is a serving grid alone; one that also sets a
sweep-only key produces both grids side by side.
"""

from __future__ import annotations

import fnmatch
from dataclasses import replace

from repro.common.config import DRAM_PRESETS, dram_preset
from repro.sim.sweep import MODES, SCALES, SweepTask, scale_registry, task_grid


class SpecError(ValueError):
    """A malformed or unsatisfiable campaign spec."""


_SUFFIXES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}

#: Dimension keys the grammar accepts (aliases normalized first).
DIMENSIONS = (
    "benchmarks", "modes", "dram", "tile", "cores", "scale",
    "engine", "frontend", "sample", "tenants", "aggressor",
)

_ALIASES = {
    "benchmark": "benchmarks",
    "configs": "modes",
    "config": "modes",
    "mode": "modes",
    "tiles": "tile",
    "tenant": "tenants",
}

_CHOICES = {
    "modes": set(MODES),
    # Derived from the preset registry beside DRAMConfig so a new memory
    # technology (e.g. ``cxl``) is accepted here the moment it exists —
    # the grammar can never lag the config layer.
    "dram": set(DRAM_PRESETS),
    "scale": set(SCALES),
    "engine": {"batched", "scalar"},
    "frontend": {"batched", "scalar"},
}

_INT_DIMS = {"tile", "cores", "sample", "tenants", "aggressor"}

#: Keys that only shape the benchmark grid.  A ``tenants`` spec naming
#: none of them expands serve tasks only.
SWEEP_ONLY = ("benchmarks", "modes", "scale", "tile", "cores", "frontend",
              "sample")


# ------------------------------------------------------------------ parsing

def parse_atom(token: str) -> int | str:
    """One literal value: an integer (with optional k/m/g suffix) or a
    bare string."""
    text = token.strip()
    if not text:
        raise SpecError("empty value in spec")
    scale = 1
    if text[-1].lower() in _SUFFIXES and text[:-1].lstrip("-").isdigit():
        scale = _SUFFIXES[text[-1].lower()]
        text = text[:-1]
    if text.lstrip("-").isdigit():
        return int(text) * scale
    return token.strip()


def expand_range(lo: int, hi: int) -> list[int]:
    """Geometric doubling from ``lo`` to ``hi`` inclusive."""
    if lo <= 0:
        raise SpecError(f"range start must be positive, got {lo}")
    if hi < lo:
        raise SpecError(f"empty range {lo}:{hi}")
    values = []
    v = lo
    while v < hi:
        values.append(v)
        v *= 2
    values.append(hi)
    return values


def expand_values(text: str) -> list[int | str]:
    """A clause's right-hand side: comma list of atoms and ``lo:hi``
    geometric ranges."""
    out: list[int | str] = []
    for token in text.split(","):
        if ":" in token:
            lo_s, _, hi_s = token.partition(":")
            lo, hi = parse_atom(lo_s), parse_atom(hi_s)
            if not (isinstance(lo, int) and isinstance(hi, int)):
                raise SpecError(f"range bounds must be integers: {token!r}")
            out.extend(expand_range(lo, hi))
        else:
            out.append(parse_atom(token))
    # Dedupe preserving order (ranges can overlap comma values).
    seen: set[int | str] = set()
    unique = [v for v in out if not (v in seen or seen.add(v))]  # type: ignore[func-returns-value]
    return unique


def parse_spec(text: str) -> dict[str, list[int | str]]:
    """Parse a spec line into ``dimension -> values`` (validated)."""
    spec: dict[str, list[int | str]] = {}
    for clause in text.split():
        key, sep, values = clause.partition("=")
        if not sep or not values:
            raise SpecError(
                f"clause {clause!r} is not key=value,...; dimensions: "
                f"{', '.join(DIMENSIONS)}")
        key = _ALIASES.get(key.lower(), key.lower())
        if key not in DIMENSIONS:
            raise SpecError(
                f"unknown dimension {key!r}; choose from "
                f"{', '.join(DIMENSIONS)}")
        if key in spec:
            raise SpecError(f"dimension {key!r} given twice")
        parsed = expand_values(values)
        if key in _INT_DIMS:
            bad = [v for v in parsed if not isinstance(v, int)]
            if bad:
                raise SpecError(f"{key} takes integers, got {bad}")
        choices = _CHOICES.get(key)
        if choices is not None:
            bad = [v for v in parsed if v not in choices]
            if bad:
                raise SpecError(
                    f"{key} takes {sorted(choices)}, got {bad}")
        spec[key] = parsed
    return spec


def _match_benchmarks(patterns: list[int | str], scale: str) -> list[str]:
    """Glob-expand benchmark patterns against the scale's registry, in
    registry order, erroring on patterns that match nothing."""
    names = list(scale_registry(scale))
    selected: list[str] = []
    for pattern in patterns:
        pat = str(pattern)
        hits = [n for n in names if fnmatch.fnmatchcase(n, pat)]
        if not hits:
            raise SpecError(
                f"benchmark pattern {pat!r} matches nothing "
                f"(registry: {', '.join(names)})")
        selected.extend(h for h in hits if h not in selected)
    return selected


# ---------------------------------------------------------------- expansion

def expand_sweep_tasks(spec: dict[str, list[int | str]]) -> list[SweepTask]:
    """The spec's (workload, config, mode) grid as deduplicated
    :class:`~repro.sim.sweep.SweepTask` items, one
    :func:`~repro.sim.sweep.task_grid` per scale (empty for a
    serving-only spec)."""
    if "tenants" in spec and not any(k in spec for k in SWEEP_ONLY):
        return []
    engine = spec.get("engine", [None])[0]
    frontend = spec.get("frontend", [None])[0]
    tasks: list[SweepTask] = []
    for scale in (str(s) for s in spec.get("scale", ["main"])):
        tasks += task_grid(
            _match_benchmarks(spec.get("benchmarks", ["*"]), scale),
            tuple(str(m) for m in spec.get("modes", MODES)), scale,
            cores=tuple(int(c) for c in spec.get("cores", [4])),
            drams=tuple(map(str, spec["dram"])) if "dram" in spec
            else (None,),
            tiles=tuple(map(int, spec["tile"])) if "tile" in spec
            else (None,),
            engine=None if engine is None else str(engine),
            frontend=None if frontend is None else str(frontend),
            sample_every=int(spec.get("sample", [0])[0]))
    return tasks


def expand_serve_params(spec: dict[str, list[int | str]]) -> list[dict]:
    """The spec's serving-layer grid (``tenants x dram x aggressor``) as
    parameter dicts for :func:`execute_serve`."""
    if "tenants" not in spec:
        return []
    drams = [str(d) for d in spec.get("dram", ["ddr4"])]
    aggressors = [int(a) for a in spec.get("aggressor", [-1])]
    engine = str(spec.get("engine", ["batched"])[0] or "batched")
    params = []
    for tenants in spec["tenants"]:
        if int(tenants) < 1:
            raise SpecError(f"tenants must be >= 1, got {tenants}")
        for dram in drams:
            for aggressor in aggressors:
                if aggressor >= int(tenants):
                    raise SpecError(
                        f"aggressor index {aggressor} out of range for "
                        f"{tenants} tenant(s)")
                params.append({"tenants": int(tenants), "dram": dram,
                               "aggressor": aggressor, "engine": engine})
    return params


def execute_serve(params: dict):
    """Run one serve task (uncached) and return its
    :class:`~repro.serve.ServeReport`.  Tenants use the ``serve`` command's
    defaults: 4 tiles of 96 lines, seed 0, borrow on."""
    from repro.serve import make_tenants, serve_run
    config = replace(dram_preset(params["dram"]), engine=params["engine"])
    tenants = make_tenants(params["tenants"], tiles=4, tile_lines=96,
                           aggressor=params["aggressor"])
    return serve_run(tenants, config=config)


def task_labels(tasks: list[SweepTask],
                serves: list[dict]) -> list[str]:
    """Readable, unique names for a campaign's tasks, sweep tasks first
    (``IS.quick.dx100``, ``serve.t4.ddr5``); axis collisions such as two
    tile sizes get ``.2``/``.3`` suffixes."""
    bases = [f"{t.benchmark}.{t.scale}.{t.mode}" for t in tasks]
    for p in serves:
        aggressor = f".a{p['aggressor']}" if p["aggressor"] >= 0 else ""
        bases.append(f"serve.t{p['tenants']}.{p['dram']}{aggressor}")
    labels: list[str] = []
    seen: dict[str, int] = {}
    for base in bases:
        seen[base] = seen.get(base, 0) + 1
        labels.append(base if seen[base] == 1 else f"{base}.{seen[base]}")
    return labels
