"""Well-formedness checker for emitted Chrome trace-event JSON.

``python -m repro timeline ... --trace PATH`` checks the file it writes
with :func:`validate_file` and exits 1 unless it loads in
Perfetto-compatible form:

* top level is an object with a non-empty ``traceEvents`` list;
* every event is an object carrying ``ph``, ``pid``, ``tid``, ``name``;
* every non-metadata event has a numeric, non-negative ``ts``;
* complete (``X``) events carry a non-negative ``dur``;
* counter (``C``) events carry numeric ``args.value``;
* per (pid, tid) track, timestamps are monotonically non-decreasing.
"""

from __future__ import annotations

import json
from pathlib import Path

REQUIRED_KEYS = ("ph", "pid", "tid", "name")


def validate_events(events) -> list[str]:
    """Check a ``traceEvents`` list; returns human-readable problems."""
    problems: list[str] = []
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    if not events:
        return ["traceEvents is empty"]
    last_ts: dict[tuple, float] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        missing = [k for k in REQUIRED_KEYS if k not in event]
        if missing:
            problems.append(f"event {i}: missing keys {missing}")
            continue
        ph = event["ph"]
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i} ({event['name']!r}): bad ts {ts!r}")
            continue
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"event {i} ({event['name']!r}): bad dur {dur!r}")
        if ph == "C":
            value = (event.get("args") or {}).get("value")
            if not isinstance(value, (int, float)):
                problems.append(
                    f"event {i} ({event['name']!r}): counter without "
                    f"numeric args.value")
        track = (event["pid"], event["tid"])
        prev = last_ts.get(track)
        if prev is not None and ts < prev:
            problems.append(
                f"event {i} ({event['name']!r}): ts {ts} goes backwards on "
                f"track pid={track[0]} tid={track[1]} (prev {prev})")
        last_ts[track] = ts
    return problems


def validate_trace(payload) -> list[str]:
    """Check one parsed trace JSON object; returns problems (empty = ok)."""
    if not isinstance(payload, dict):
        return ["top level is not a JSON object"]
    if "traceEvents" not in payload:
        return ["missing traceEvents key"]
    return validate_events(payload["traceEvents"])


def validate_file(path: str | Path) -> list[str]:
    """Load and check one trace file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable: {exc}"]
    return validate_trace(payload)

