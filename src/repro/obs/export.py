"""Exporters: Chrome ``trace_event`` JSON (Perfetto-loadable).

The Chrome trace format is a JSON array of event objects with ``ph``
(phase), ``ts`` (microseconds), ``pid``/``tid`` (process/thread lanes)
and ``args``.  We map each bus track (``cpu0``, ``cpu1``, ...,
``daemon``, ``pager``) to its own ``tid`` and name it with ``"M"``
metadata events, so a trace of a 4-CPU machine loads in Perfetto or
``chrome://tracing`` as one lane per simulated CPU plus service lanes.

:func:`validate_chrome_trace` is the checker the CI smoke job runs:
well-formed JSON, required fields, and per-track monotonically
non-decreasing timestamps (guaranteed by construction — ``ts`` is the
machine-wide simulated elapsed clock — but verified anyway).

Standard library only — see the module docstring of
:mod:`repro.obs.bus`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Union

__all__ = ["chrome_trace", "chrome_trace_json", "validate_chrome_trace"]

_PID = 1
_JSON_SCALARS = (str, int, float, bool, type(None))


def _track_order(track: str) -> tuple:
    """Sort key giving CPU tracks their numeric order first, then
    service tracks alphabetically."""
    if track.startswith("cpu") and track[3:].isdigit():
        return (0, int(track[3:]), "")
    return (1, 0, track)


def _args(data: Dict[str, Any]) -> Dict[str, Any]:
    """Chrome ``args`` must be JSON-serializable; stringify the rest
    (pmap objects, enums, tuples)."""
    return {k: v if isinstance(v, _JSON_SCALARS) else str(v)
            for k, v in data.items()}


def chrome_trace(events: List[Any],
                 process_name: str = "repro") -> List[Dict[str, Any]]:
    """Convert bus events to a list of Chrome trace_event dicts.

    ``E`` events with no open ``B`` on their track (subscriber attached
    mid-span) are dropped so the trace always balances.  A ``tag``
    (the ``tlb/*`` events' pmap tag, a host object id) is renumbered
    1, 2, ... by first appearance, so the same run exports the same
    trace in every process.
    """
    tracks = sorted({e.track for e in events}, key=_track_order)
    tids = {track: i + 1 for i, track in enumerate(tracks)}
    out: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": process_name},
    }]
    for track in tracks:
        out.append({"name": "thread_name", "ph": "M", "pid": _PID,
                    "tid": tids[track], "args": {"name": track}})
    open_depth: Dict[tuple, int] = {}
    tags: Dict[Any, int] = {}
    for event in events:
        tid = tids[event.track]
        name = f"{event.subsystem}/{event.kind}"
        args = _args(event.data)
        if "tag" in args:
            args["tag"] = tags.setdefault(args["tag"], len(tags) + 1)
        record: Dict[str, Any] = {
            "name": name,
            "cat": event.subsystem,
            "ts": event.ts_us,
            "pid": _PID,
            "tid": tid,
            "args": args,
        }
        if event.task:
            record["args"]["task"] = event.task
        key = (tid,)
        if event.phase == "B":
            record["ph"] = "B"
            open_depth[key] = open_depth.get(key, 0) + 1
        elif event.phase == "E":
            if not open_depth.get(key, 0):
                continue  # unbalanced: attach happened mid-span
            open_depth[key] -= 1
            record["ph"] = "E"
        else:
            record["ph"] = "i"
            record["s"] = "t"  # thread-scoped instant
        out.append(record)
    return out


def chrome_trace_json(events: List[Any],
                      process_name: str = "repro") -> str:
    """The trace as a JSON string ready to write to a ``.json`` file."""
    return json.dumps(chrome_trace(events, process_name=process_name),
                      indent=None, separators=(",", ":"))


def validate_chrome_trace(
        trace: Union[str, List[Dict[str, Any]]]) -> List[str]:
    """Check a Chrome trace for well-formedness.

    Returns a list of problem strings (empty means valid): parses the
    JSON, requires ``name``/``ph``/``pid``/``tid`` (+ ``ts`` for
    non-metadata events), requires balanced ``B``/``E`` nesting and
    monotonically non-decreasing ``ts`` per track.
    """
    problems: List[str] = []
    if isinstance(trace, str):
        try:
            trace = json.loads(trace)
        except ValueError as exc:
            return [f"not valid JSON: {exc}"]
    if isinstance(trace, dict):
        trace = trace.get("traceEvents", [])
    if not isinstance(trace, list):
        return ["trace is not a JSON array (or traceEvents object)"]
    last_ts: Dict[Any, float] = {}
    depth: Dict[Any, int] = {}
    for i, record in enumerate(trace):
        if not isinstance(record, dict):
            problems.append(f"event {i}: not an object")
            continue
        for field in ("name", "ph", "pid", "tid"):
            if field not in record:
                problems.append(f"event {i}: missing {field!r}")
        phase = record.get("ph")
        if phase == "M":
            continue
        ts = record.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {i}: missing numeric 'ts'")
            continue
        tid = record.get("tid")
        if tid in last_ts and ts < last_ts[tid]:
            problems.append(
                f"event {i}: ts {ts} goes backwards on tid {tid} "
                f"(previous {last_ts[tid]})")
        last_ts[tid] = ts
        if phase == "B":
            depth[tid] = depth.get(tid, 0) + 1
        elif phase == "E":
            depth[tid] = depth.get(tid, 0) - 1
            if depth[tid] < 0:
                problems.append(f"event {i}: 'E' with no open 'B' "
                                f"on tid {tid}")
                depth[tid] = 0
    for tid, d in depth.items():
        if d > 0:
            problems.append(f"tid {tid}: {d} span(s) never closed")
    return problems
