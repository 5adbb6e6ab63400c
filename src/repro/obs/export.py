"""Chrome ``trace_event`` export (loadable in Perfetto / chrome://tracing).

Events become instant events (phase ``"i"``) on one track per hardware
thread; interval samples become counter tracks (phase ``"C"``) for IPC and
structure occupancies.  One simulated cycle maps to one microsecond of
trace time, so Perfetto's time axis reads directly as cycles.

The JSON Object Format variant is produced (``{"traceEvents": [...]}``)
because it allows metadata alongside the event array.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Process id used for all simulator tracks.
_PID = 1
#: Track id for events not attributable to one hardware thread.
_MACHINE_TRACK = 99


def chrome_trace_events(events) -> list[dict]:
    """Convert :class:`TraceEvent` objects to ``traceEvents`` entries."""
    rows = []
    for event in events:
        args = {}
        if event.pc >= 0:
            args["pc"] = event.pc
        if event.seq >= 0:
            args["seq"] = event.seq
        if event.data:
            args.update(event.data)
        rows.append(
            {
                "name": event.kind.value,
                "cat": "sim",
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "ts": event.cycle,
                "pid": _PID,
                "tid": event.tid if event.tid >= 0 else _MACHINE_TRACK,
                "args": args,
            }
        )
    return rows


def chrome_counter_events(samples) -> list[dict]:
    """Convert interval samples to Chrome counter (``"C"``) entries."""
    rows = []
    for sample in samples:
        ts = sample.end_cycle
        rows.append(
            {
                "name": "ipc",
                "ph": "C",
                "ts": ts,
                "pid": _PID,
                "args": {"ipc": sample.ipc()},
            }
        )
        rows.append(
            {
                "name": "occupancy",
                "ph": "C",
                "ts": ts,
                "pid": _PID,
                "args": {
                    "rob": sample.rob_occupancy,
                    "iq": sample.iq_occupancy,
                    "lsq": sample.lsq_occupancy,
                    "mshr": sample.mshr_outstanding,
                },
            }
        )
        rows.append(
            {
                "name": "fetch_mode_share",
                "ph": "C",
                "ts": ts,
                "pid": _PID,
                "args": dict(sample.mode_share()),
            }
        )
    return rows


def chrome_trace(events, samples=(), metadata: dict | None = None) -> dict:
    """Build a complete Chrome trace document."""
    trace_events = chrome_trace_events(events)
    trace_events.extend(chrome_counter_events(samples))
    document = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro (Minimal Multi-Threading, MICRO 2010)",
            "time_unit": "1 ts = 1 simulated cycle",
        },
    }
    if metadata:
        document["otherData"].update(metadata)
    return document


def write_chrome_trace(
    path: str | Path, events, samples=(), metadata: dict | None = None
) -> Path:
    """Write a Perfetto-loadable trace for *events*/*samples* to *path*."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = chrome_trace(events, samples, metadata)
    path.write_text(json.dumps(document) + "\n")
    return path


def load_chrome_trace(path: str | Path) -> dict:
    """Read back a written trace (round-trip checks, tooling)."""
    return json.loads(Path(path).read_text())


def validate_chrome_trace(document: dict) -> list[str]:
    """Schema-check a trace document; returns the list of problems.

    Checks the subset of the Trace Event Format that Perfetto requires:
    a ``traceEvents`` array whose entries carry ``name``/``ph``/``ts``/
    ``pid``, instants additionally a ``tid``, counters numeric ``args``.
    """
    problems = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for index, row in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(row, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "ts", "pid"):
            if key not in row:
                problems.append(f"{where}: missing {key!r}")
        phase = row.get("ph")
        if phase not in ("i", "C", "X", "B", "E", "M"):
            problems.append(f"{where}: unsupported phase {phase!r}")
        if phase == "i" and "tid" not in row:
            problems.append(f"{where}: instant event without tid")
        if phase == "C":
            args = row.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"{where}: counter without args")
            elif not all(
                isinstance(value, (int, float)) for value in args.values()
            ):
                problems.append(f"{where}: non-numeric counter value")
        if not isinstance(row.get("ts"), (int, float)):
            problems.append(f"{where}: non-numeric ts")
    return problems
