"""Result formatting: ASCII tables and CSV, in the spirit of the paper
artifact's ``results/results.csv`` + plotting scripts."""

from __future__ import annotations

import csv
import io
from pathlib import Path

from repro.common.stats import geomean
from repro.sim.metrics import RunResult

CSV_FIELDS = [
    "workload", "config", "cycles", "instructions",
    "bandwidth_utilization", "row_buffer_hit_rate",
    "request_buffer_occupancy", "llc_mpki", "dram_bytes", "dram_requests",
]


def to_csv(results: list[RunResult], path: str | Path | None = None) -> str:
    """Serialize runs to CSV; optionally write to ``path``."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in results:
        writer.writerow({field: getattr(r, field) for field in CSV_FIELDS})
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


# ``comparison_table`` cell geometry: a populated metrics cell is
# "{cycles:12d} {bw:5.2f} {rbh:5.2f}" = CELL_WIDTH characters, and every
# non-baseline column group carries a " {speedup:7.2f}x" = SPEEDUP_WIDTH
# suffix.  Blank cells pad to exactly the same widths so the "|" column
# separators stay aligned down every row.
CELL_WIDTH = 12 + 1 + 5 + 1 + 5
SPEEDUP_WIDTH = 1 + 7 + 1


def comparison_table(results: dict[str, dict[str, RunResult]]) -> str:
    """Figure 9/10-style table: one row per workload, one column group per
    configuration, with speedups against the baseline."""
    configs = sorted({c for runs in results.values() for c in runs})
    if "baseline" in configs:
        configs.remove("baseline")
        configs.insert(0, "baseline")
    lines = []
    width = max([10, *map(len, results)])
    header = f"{'workload':{width}s}"
    for c in configs:
        header += f" | {c:>8s} cyc {'BW':>5s} {'RBH':>5s}"
        if c != "baseline":
            header += f" {'speedup':>8s}"
    lines.append(header)
    lines.append("-" * len(header))
    speedups: dict[str, list[float]] = {c: [] for c in configs}
    for name, runs in results.items():
        row = f"{name:{width}s}"
        base = runs.get("baseline")
        for c in configs:
            group = CELL_WIDTH + (SPEEDUP_WIDTH if c != "baseline" else 0)
            r = runs.get(c)
            if r is None:
                row += " | " + " " * group
                continue
            row += (f" | {r.cycles:12d} {r.bandwidth_utilization:5.2f} "
                    f"{r.row_buffer_hit_rate:5.2f}")
            if c != "baseline":
                if base is not None:
                    s = base.cycles / r.cycles
                    speedups[c].append(s)
                    row += f" {s:7.2f}x"
                else:
                    row += " " * SPEEDUP_WIDTH
        lines.append(row)
    for c in configs:
        if c != "baseline" and speedups[c]:
            lines.append(f"geomean speedup ({c}): "
                         f"{geomean(speedups[c]):.2f}x")
    return "\n".join(lines)


def bar_chart(values: dict[str, float], width: int = 40,
              unit: str = "x") -> str:
    """ASCII horizontal bar chart (the artifact plots PNGs; we plot text).

    Zero values render a zero-width bar (an honest nothing, not a
    one-glyph sliver); negative values are rejected — a length cannot
    encode a sign.
    """
    if not values:
        return "(no data)"
    negative = [k for k, v in values.items() if v < 0]
    if negative:
        raise ValueError(f"bar chart values must be >= 0, got negative: "
                         f"{', '.join(sorted(negative))}")
    peak = max(values.values())
    if peak <= 0:
        raise ValueError("bar chart needs at least one positive value")
    lines = []
    for label, value in values.items():
        # A positive value always shows at least one glyph; exactly zero
        # shows none.
        glyphs = max(1, round(width * value / peak)) if value > 0 else 0
        lines.append(f"{label:>10s} | {'#' * glyphs} {value:.2f}{unit}")
    return "\n".join(lines)


def single_run_summary(result: RunResult) -> str:
    """One-line human summary of a run's headline metrics."""
    return (
        f"{result.workload} [{result.config}]: {result.cycles} cycles, "
        f"{result.instructions:.0f} instructions, "
        f"BW {result.bandwidth_utilization:.2f}, "
        f"RBH {result.row_buffer_hit_rate:.2f}, "
        f"occupancy {result.request_buffer_occupancy:.1f}, "
        f"LLC MPKI {result.llc_mpki:.1f}"
    )
