"""Report formatting and the command-line runner."""

import csv
import io
import os
import pathlib
import subprocess
import sys

import pytest

from repro.sim import run_baseline, run_dx100
from repro.sim.report import comparison_table, single_run_summary, to_csv
from repro.workloads import GatherFull
from repro.__main__ import main


@pytest.fixture(scope="module")
def runs():
    base = run_baseline(GatherFull(1024))
    dx = run_dx100(GatherFull(1024))
    return base, dx


def test_csv_round_trip(runs, tmp_path):
    base, dx = runs
    path = tmp_path / "results.csv"
    text = to_csv([base, dx], path)
    assert path.read_text() == text
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 2
    assert rows[0]["workload"] == "gather-full"
    assert int(rows[0]["cycles"]) == base.cycles


def test_comparison_table(runs):
    base, dx = runs
    table = comparison_table({"gather-full": {"baseline": base,
                                              "dx100": dx}})
    assert "gather-full" in table
    assert "geomean speedup (dx100)" in table
    assert "x" in table


def test_single_run_summary(runs):
    base, _ = runs
    text = single_run_summary(base)
    assert "gather-full" in text and "cycles" in text


def test_bandwidth_utilization_is_physical(runs):
    for r in runs:
        assert 0.0 <= r.bandwidth_utilization <= 1.0


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "XRAGE" in out and "Spatter" in out


def test_cli_area(capsys):
    assert main(["area"]) == 0
    out = capsys.readouterr().out
    assert "scratchpad" in out and "TOTAL" in out


@pytest.fixture
def run_cache(tmp_path, monkeypatch):
    """Point ``run``'s run cache at a temporary directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "runcache"))
    return tmp_path / "runcache"


def test_cli_run_quick(capsys, tmp_path, run_cache):
    csv_path = tmp_path / "out.csv"
    code = main(["run", "XRAGE", "--quick", "--configs", "baseline",
                 "dx100", "--csv", str(csv_path), "--jobs", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "XRAGE" in out and "geomean" in out
    assert csv_path.exists()


def test_cli_run_table_keeps_every_grid_point(capsys, run_cache):
    """Several DRAM presets, core counts or tile sizes give one table row or
    DX100 column each, instead of the last point overwriting the rest."""
    code = main(["run", "IS", "--quick", "--configs", "baseline", "dx100",
                 "--dram", "ddr4", "cxl", "--cores", "2", "4",
                 "--tile", "1024", "2048", "--jobs", "1"])
    assert code == 0
    out = capsys.readouterr().out
    rows = [line.split(" |")[0].strip() for line in out.splitlines()
            if line.startswith("IS")]
    assert rows == ["IS ddr4 2c", "IS ddr4 4c", "IS cxl 2c", "IS cxl 4c"]
    assert "dx1024 cyc" in out and "dx2048 cyc" in out
    assert "12 runs" in out


def test_cli_run_rejects_unknown(capsys, run_cache):
    assert main(["run", "NOPE", "--quick"]) == 2
    assert main(["run", "--quick"]) == 2
    assert main(["run", "--scale", "full"]) == 2   # no default benchmark
    assert main(["run", "BFS", "--scale", "full"]) == 2
    assert "at scale full" in capsys.readouterr().err


def test_cli_run_rejects_zero_cores(capsys, run_cache):
    """``--cores 0`` is a usage error naming the field, not a traceback
    from deep inside the trace builder."""
    assert main(["run", "IS", "--quick", "--configs", "baseline",
                 "--cores", "0"]) == 2
    assert "cores must be >= 1" in capsys.readouterr().err


def test_cli_run_writes_only_the_requested_records(tmp_path, monkeypatch,
                                                   run_cache):
    """``run`` writes no record unless asked: neither the figure grid's
    ``BENCH_mainsweep.json`` nor a default ``results/sweep.json``."""
    monkeypatch.chdir(tmp_path)
    assert main(["run", "IS", "--quick", "--configs", "baseline",
                 "--jobs", "1"]) == 0
    assert not (tmp_path / "BENCH_mainsweep.json").exists()
    assert not (tmp_path / "results" / "sweep.json").exists()


def test_cli_run_twice_is_all_cache_hits(tmp_path, capsys, run_cache):
    """A repeated ``run`` is answered by the run cache: every task is a
    hit, the table is identical and the RunResults are bitwise equal."""
    import json
    argv = ["run", "IS", "PR", "--quick", "--jobs", "1", "--audit"]
    records = []
    tables = []
    for name in ("first", "again"):
        path = tmp_path / f"{name}.json"
        assert main(argv + ["--json", str(path)]) == 0
        out = capsys.readouterr().out
        tables.append(out[:out.index(" runs in ")])
        records.append(json.loads(path.read_text()))
    first, again = records
    assert first["cache_misses"] == 4 and first["cache_hits"] == 0
    assert again["cache_misses"] == 0 and again["cache_hits"] == 4
    assert all(run["cached"] for run in again["runs"])
    assert [r["result"] for r in again["runs"]] == \
        [r["result"] for r in first["runs"]]
    assert tables[0] == tables[1]
    assert "0 timing violation(s)" in out


def test_cli_timeline(capsys):
    code = main(["timeline", "XRAGE", "--quick", "--mode", "dx100",
                 "--sample-every", "500", "--width", "50"])
    assert code == 0
    out = capsys.readouterr().out
    assert "timeline:" in out
    assert "rbh" in out and "bw_util" in out
    assert "timeline_samples" in out


def test_cli_timeline_with_trace(capsys, tmp_path):
    from repro.obs.validate import validate_file
    trace_path = tmp_path / "trace.json"
    code = main(["timeline", "XRAGE", "--quick", "--mode", "baseline",
                 "--trace", str(trace_path), "--sample-every", "500"])
    assert code == 0
    assert trace_path.exists()
    assert validate_file(trace_path) == []


def test_cli_timeline_fails_on_a_malformed_trace(capsys, tmp_path,
                                                 monkeypatch):
    """``timeline --trace`` checks the file it wrote: a writer that emits
    an event without ``ts`` makes the command exit 1 and name it."""
    import json

    from repro.obs import trace

    def malformed(bus, path):
        payload = trace.chrome_trace(bus)
        payload["traceEvents"].append(
            {"ph": "X", "pid": 0, "tid": 0, "name": "broken", "dur": 1})
        path.write_text(json.dumps(payload))
        return path

    monkeypatch.setattr(trace, "write_chrome_trace", malformed)
    trace_path = tmp_path / "trace.json"
    code = main(["timeline", "XRAGE", "--quick", "--mode", "baseline",
                 "--trace", str(trace_path), "--sample-every", "500"])
    assert code == 1
    err = capsys.readouterr().err
    assert "INVALID (1 problem(s))" in err and "'broken'" in err


def test_cli_timeline_rejects_bad_args(capsys):
    assert main(["timeline", "NOPE", "--quick"]) == 2
    assert main(["timeline", "XRAGE", "--quick", "--sample-every", "0"]) == 2


@pytest.mark.parametrize("lines", [0, 1])
def test_cli_exits_quietly_when_the_reader_closes_the_pipe(lines):
    """``python -m repro list | head -1``: once the reader has closed the
    pipe (before any line, or after the first), the CLI exits quietly:
    1 if a write failed, 0 if every line was written before the close,
    and nothing on stderr."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1"}
    read, write = os.pipe()
    if not lines:
        os.close(read)
    proc = subprocess.Popen([sys.executable, "-m", "repro", "list"],
                            stdout=write, stderr=subprocess.PIPE, env=env)
    os.close(write)
    if lines:
        with os.fdopen(read, "rb") as reader:
            assert reader.readline().startswith(b"name")
    _, err = proc.communicate(timeout=120)
    assert proc.returncode in ((0, 1) if lines else (1,)), err
    assert err == b""
