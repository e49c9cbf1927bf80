"""Versioned ``repro check --report`` format + tolerant consumer.

The report used to be bare finding lines; consumers that diff reports
across PRs broke whenever a pass was added.  The format is now JSON
with an explicit ``schema_version``; findings are sorted by
``(file, line, rule)`` so two clean runs produce byte-identical
reports.  :func:`load_report` is the matching consumer: every field
is optional, a missing section reads as empty, and the pre-JSON
plain-text format still loads (one problem string per line) — a
consumer must tolerate reports both older and newer than itself.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

#: Bumped on incompatible report layout changes.
SCHEMA_VERSION = 1


def render_report(problems: list[str], findings: list,
                  errors: list, suppressed: int,
                  analyzed: int, cached: int,
                  wall_s: Optional[float] = None) -> str:
    """The canonical report text: versioned, deterministically
    ordered JSON (findings arrive pre-sorted by (file, line, rule)
    from the flow runner; keys are sorted here)."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "clean": not problems,
        "problems": list(problems),
        "findings": [
            {"pass": f.pass_name, "file": f.module, "line": f.lineno,
             "rule": f.rule, "where": f.where, "message": f.message}
            for f in findings],
        "errors": [str(e) for e in errors],
        "suppressed": suppressed,
        "analyzed": analyzed,
        "cached": cached,
    }
    if wall_s is not None:
        payload["wall_s"] = round(wall_s, 3)
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def load_report(path: str | Path) -> dict:
    """Read a report written by any ``repro check`` vintage.

    Always returns a dict with at least ``schema_version`` (0 for the
    legacy plain-text format), ``problems`` (list of strings) and
    ``findings`` (list of dicts); unknown fields from newer schemas
    are passed through untouched.
    """
    text = Path(path).read_text()
    try:
        payload = json.loads(text) if text.strip() else {}
    except ValueError:
        payload = None
    if not isinstance(payload, dict):
        # Legacy: one problem line per row, empty file when clean.
        lines = [ln for ln in text.splitlines() if ln.strip()]
        return {"schema_version": 0, "problems": lines,
                "findings": [], "clean": not lines}
    out = dict(payload)
    out.setdefault("schema_version", 0)
    problems = out.get("problems")
    out["problems"] = list(problems) if isinstance(problems, list) \
        else []
    findings = out.get("findings")
    out["findings"] = [f for f in findings
                       if isinstance(f, dict)] \
        if isinstance(findings, list) else []
    out.setdefault("clean", not out["problems"])
    return out
