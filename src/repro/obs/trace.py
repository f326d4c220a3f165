"""Chrome trace-event JSON export (Perfetto / chrome://tracing).

Converts an :class:`~repro.obs.events.EventBus` recording into the Trace
Event Format's JSON object form: ``{"traceEvents": [...]}`` with metadata
(``M``) events naming processes and threads, complete (``X``) events for
spans, instant (``i``) events for point occurrences, and counter (``C``)
events for the sampled timeline.  Timestamps are simulated cycles written
as microseconds (1 cycle == 1 us in the viewer; absolute wall time is
meaningless for a simulation, relative spans are what matter).

Track layout (one Perfetto process group per hardware entity):

* pid 100+c — ``DRAM ch<c>``: one thread per bank showing row-open spans
  (``row <r>`` from ACT to PRE, annotated with the read/write count it
  served), a ``scheduler`` thread with age-cap override instants, and
  per-channel counter tracks (``rbh``, ``bw_util``, ``occupancy``,
  ``open_banks``) from the timeline sampler.
* pid 2 — ``cores``: one thread per core with ``rob-blocked`` spans
  (head-of-line stalls) and ``dram-miss`` instants.
* pid 3 — ``cache``: ``llc-miss`` instants plus MSHR occupancy counters.
* pid 4 — ``DX100 tiles``: one thread per scratchpad tile with lifecycle
  phase spans (fill, drain, response, writeback, stream-in/out, alu).
* pid 5 — ``DX100 units``: one thread per functional unit with
  instruction spans, plus a Row Table fill counter.

Events are emitted sorted by (pid, tid, ts) so every track's timestamps
are monotonic — the property :mod:`repro.obs.validate` checks when
``timeline --trace`` writes a file.
"""

from __future__ import annotations

import json
from pathlib import Path

PID_CORES = 2
PID_CACHE = 3
PID_TILES = 4
PID_UNITS = 5
PID_DRAM_BASE = 100

#: tid used for the per-channel scheduler instants.
TID_SCHEDULER = 999

_UNIT_TIDS = {"stream": 0, "indirect": 1, "alu": 2, "rng": 3}


def _meta(pid: int, name: str, tid: int | None = None,
          thread_name: str | None = None) -> list[dict]:
    events = [{"ph": "M", "pid": pid, "tid": 0, "ts": 0,
               "name": "process_name", "args": {"name": name}}]
    if tid is not None:
        events.append({"ph": "M", "pid": pid, "tid": tid, "ts": 0,
                       "name": "thread_name",
                       "args": {"name": thread_name or name}})
    return events


def _span(pid: int, tid: int, name: str, start: float, end: float,
          args: dict | None = None) -> dict:
    event = {"ph": "X", "pid": pid, "tid": tid, "name": name,
             "ts": float(start), "dur": max(0.0, float(end) - float(start))}
    if args:
        event["args"] = args
    return event


def _instant(pid: int, tid: int, name: str, ts: float,
             args: dict | None = None) -> dict:
    event = {"ph": "i", "s": "t", "pid": pid, "tid": tid, "name": name,
             "ts": float(ts)}
    if args:
        event["args"] = args
    return event


def _counter(pid: int, name: str, ts: float, value: float) -> dict:
    return {"ph": "C", "pid": pid, "tid": 0, "name": name,
            "ts": float(ts), "args": {"value": round(float(value), 4)}}


def _dram_tracks(bus, meta: list[dict], data: list[dict]) -> None:
    """Row-open spans per bank plus scheduler instants, per channel."""
    channels: dict[int, dict[tuple, int]] = {}
    open_rows: dict[tuple, list] = {}   # flat_bank -> [row, t_act, rd, wr]
    last_cycle: dict[tuple, float] = {}

    def tid_of(channel: int, flat_bank: tuple) -> int:
        banks = channels.setdefault(channel, {})
        tid = banks.get(flat_bank)
        if tid is None:
            tid = banks[flat_bank] = len(banks)
            _, rank, bankgroup, bank = flat_bank
            meta.extend(_meta(PID_DRAM_BASE + channel,
                              f"DRAM ch{channel}", tid,
                              f"r{rank} bg{bankgroup} b{bank}")[1:])
        return tid

    def close(channel: int, flat_bank: tuple, end: float) -> None:
        entry = open_rows.pop(flat_bank, None)
        if entry is None:
            return
        row, t_act, reads, writes = entry
        data.append(_span(PID_DRAM_BASE + channel, tid_of(channel, flat_bank),
                          f"row {row}", t_act, max(t_act, end),
                          {"reads": reads, "writes": writes}))

    seen_channels = set()
    for channel, kind, cycle, flat_bank, row in bus.dram_events:
        if channel not in seen_channels:
            seen_channels.add(channel)
            meta.extend(_meta(PID_DRAM_BASE + channel, f"DRAM ch{channel}"))
            meta.extend(_meta(PID_DRAM_BASE + channel, f"DRAM ch{channel}",
                              TID_SCHEDULER, "scheduler")[1:])
        tid_of(channel, flat_bank)
        last_cycle[flat_bank] = max(last_cycle.get(flat_bank, 0), cycle)
        if kind == "ACT":
            # A dangling open row (shouldn't happen: PRE precedes ACT on a
            # conflict) is closed defensively rather than dropped.
            close(channel, flat_bank, cycle)
            open_rows[flat_bank] = [row, float(cycle), 0, 0]
        elif kind == "PRE":
            close(channel, flat_bank, cycle)
        elif kind in ("RD", "WR"):
            entry = open_rows.get(flat_bank)
            if entry is not None:
                entry[2 if kind == "RD" else 3] += 1
    for flat_bank in list(open_rows):
        close(flat_bank[0], flat_bank, last_cycle.get(flat_bank, 0.0))
    for channel, cycle in bus.starvations:
        data.append(_instant(PID_DRAM_BASE + channel, TID_SCHEDULER,
                             "age-cap override", cycle))


def chrome_trace(bus) -> dict:
    """Build the Chrome trace-event JSON object from a bus recording."""
    meta: list[dict] = []
    data: list[dict] = []

    _dram_tracks(bus, meta, data)

    core_tids = set()
    for core, name, start, end in bus.core_spans:
        core_tids.add(core)
        data.append(_span(PID_CORES, core, name, start, end))
    for core, cycle in bus.core_misses:
        core_tids.add(core)
        data.append(_instant(PID_CORES, core, "dram-miss", cycle))
    if core_tids:
        meta.extend(_meta(PID_CORES, "cores"))
        for core in sorted(core_tids):
            meta.extend(_meta(PID_CORES, "cores", core, f"core {core}")[1:])

    if bus.llc_misses or bus.mshr_marks:
        meta.extend(_meta(PID_CACHE, "cache", 0, "llc"))
        for (cycle,) in bus.llc_misses:
            data.append(_instant(PID_CACHE, 0, "llc-miss", cycle))
        for name, cycle, occupancy, _capacity in bus.mshr_marks:
            data.append(_counter(PID_CACHE, name, cycle, occupancy))

    tile_tids = set()
    for tile, phase, start, end, lines in bus.tile_phases:
        tile_tids.add(tile)
        data.append(_span(PID_TILES, tile, phase, start, end,
                          {"lines": lines} if lines else None))
    if tile_tids:
        meta.extend(_meta(PID_TILES, "DX100 tiles"))
        for tile in sorted(tile_tids):
            meta.extend(_meta(PID_TILES, "DX100 tiles", tile,
                              f"tile {tile}")[1:])

    unit_tids = set()
    for unit, name, start, end in bus.dx_spans:
        tid = _UNIT_TIDS.get(unit, len(_UNIT_TIDS))
        unit_tids.add((tid, unit))
        data.append(_span(PID_UNITS, tid, name, start, end))
    for cycle, entries, lines in bus.rt_fills:
        data.append(_counter(PID_UNITS, "row_table_fill", cycle, entries))
    if unit_tids or bus.rt_fills:
        meta.extend(_meta(PID_UNITS, "DX100 units"))
        for tid, unit in sorted(unit_tids):
            meta.extend(_meta(PID_UNITS, "DX100 units", tid, unit)[1:])

    timeline = bus.timeline
    if timeline is not None:
        for channel, samples in timeline.channels.items():
            pid = PID_DRAM_BASE + channel
            for s in samples:
                ts = s["cycle"]
                data.append(_counter(pid, "rbh", ts, s["rbh"]))
                data.append(_counter(pid, "bw_util", ts, s["bw_util"]))
                data.append(_counter(pid, "occupancy", ts, s["occupancy"]))
                data.append(_counter(pid, "open_banks", ts, s["open_banks"]))

    data.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    return {
        "traceEvents": meta + data,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs (DX100 reproduction)",
            "time_unit": "1 trace us == 1 simulated cycle",
            "sample_every": bus.sample_every,
        },
    }


def write_chrome_trace(bus, path: str | Path) -> Path:
    """Serialize the bus recording to ``path`` as Chrome trace JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(bus)) + "\n")
    return path
