"""Run every checker on the ``repro`` tree first on ``sys.path`` (one
mutant's copy) and print their verdicts as JSON.

``python checkers.py GROUPS_JSON`` imports pytest, Hypothesis and
``repro`` once, then forks one child per checker job, each in a fresh
working directory and under a time cap, so no job sees another's
state and no job pays the imports again.  *GROUPS_JSON* maps each
pytest job's name to its test files.  It prints
``{"static": [...], "verdicts": {checker: [verdict, detail]}}``:

* ``static`` — every finding of the eight static passes, from one cold
  ``run_flow_passes`` after the reviewed baseline, as ``[pass, rule,
  module, where]`` (no line numbers: an edit shifts them), plus
  ``[pass, "analysis-error", "", ""]`` for a pass that crashed; ``null``
  when the job timed out.  ``run.py`` compares it with the clean tree's;
* every ``repro check`` sweep row, ``races --quick`` storm cell,
  ``races --explore`` and ``faultsweep --quick`` row, with *detail*
  naming what failed it: ``sanitizer <kind>`` (the invariant audit) or
  ``body <exception type>`` (the scenario's own assertion, or a
  crash);
* every pytest job (``pytest -x``, Hypothesis seed 0, no example
  database), with the first failing test's id as *detail*.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import tempfile
import time

#: The tree copy this script sits in.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Seconds one sweep, storm or fault row may take (each takes well
#: under one second), and one family of rows in all.
ROW_CAP = 20
FAMILY_CAP = 60
#: Seconds the static passes or one pytest job may take.
JOB_CAP = 240

#: Tests that judge no mutant: the mutant list's own guard, which
#: fails on every mutant's copy by construction (the site it looks for
#: is the one edited), and a test whose verdict reads the host's clock,
#: not the code, and fails on a clean tree when the host is loaded.
NOT_JUDGES = ("tests/test_mutation_list.py",
              "tests/test_telemetry.py::TestOverheadGuard::"
              "test_disabled_throughput_within_5pct_of_uninstrumented")


class TimedOut(BaseException):
    """Raised by the row alarm; a BaseException, so no ``except
    Exception`` in the code under test swallows it."""


def _alarm(signum, frame):
    raise TimedOut()


def _fork(job, cap: float):
    """Run ``job()`` in a forked child with its own session and cwd;
    its JSON-able result, or ``"timed-out"`` past *cap* seconds."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:     # child
        os.close(read)
        os.setsid()
        os.chdir(tempfile.mkdtemp(prefix="cwd-"))
        null = os.open(os.devnull, os.O_RDWR)
        for fd in (0, 1, 2):
            os.dup2(null, fd)
        try:
            payload = json.dumps(job()).encode()
        except BaseException as exc:   # noqa: BLE001 - reported as data
            payload = json.dumps({"crash": type(exc).__name__}).encode()
        with os.fdopen(write, "wb") as pipe:
            pipe.write(payload)
        os._exit(0)
    os.close(write)
    chunks, deadline = [], time.monotonic() + cap
    with os.fdopen(read, "rb") as pipe:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([pipe], [], [], left)[0]:
                os.killpg(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return "timed-out"
            chunk = os.read(pipe.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    os.waitpid(pid, 0)
    return json.loads(b"".join(chunks) or b'{"crash": "no output"}')


def _static():
    from repro.analysis.flow import run_flow_passes

    report = run_flow_passes()
    found = {(f.pass_name, f.rule, f.module, f.where)
             for f in report.findings}
    found |= {(e.pass_name, "analysis-error", "", "")
              for e in report.errors}
    return sorted(found)


def _via(detail: str) -> str:
    """What failed a row, from its violation (``[kind] ...``) or its
    error (``Type: message``)."""
    if detail.startswith("["):
        return "sanitizer " + detail.split("]")[0].lstrip("[")
    return "body " + detail.split(":")[0]


def _rows(jobs) -> dict:
    """``{checker: [verdict, detail]}`` for ``[(checker, fn)]``, each fn
    returning a matrix ``CellResult`` or an ``(ok, detail)`` pair, under
    the row and family caps."""
    signal.signal(signal.SIGALRM, _alarm)
    rows, deadline = {}, time.monotonic() + FAMILY_CAP
    for checker, fn in jobs:
        left = min(ROW_CAP, deadline - time.monotonic())
        if left <= 0:
            rows[checker] = ["timed-out", ""]
            continue
        signal.setitimer(signal.ITIMER_REAL, left)
        try:
            result = fn()
        except TimedOut:
            rows[checker] = ["timed-out", ""]
            continue
        except Exception as exc:   # noqa: BLE001 - a crash is a kill
            result = (False, f"body {type(exc).__name__}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        ok, detail = result if isinstance(result, tuple) else (
            result.ok,
            "" if result.ok else _via(result.violation or result.error))
        rows[checker] = ["survived", ""] if ok else ["killed", detail]
    return rows


def _families() -> list:
    """One job per view: each returns its rows."""
    from repro.analysis import matrix
    from repro.analysis.scenarios import FAULTS, STORMS
    from repro.pmap.interface import ShootdownStrategy

    def explore():
        failures = matrix.explore_shootdown().failures
        return not failures, _via(failures[0][1]) if failures else ""

    check = [(f"check/{arch}/{name}",
              lambda a=arch, n=name: matrix.run_row(matrix.sweep_row(a, n)))
             for arch in matrix.default_archs() for name in STORMS]
    races = [(f"races/{arch}/{strategy.value}/{name}",
              lambda a=arch, s=strategy, st=storm: matrix.run_cell(
                  matrix.Cell(a, st, s, matrix.RACE_SEED)))
             for arch in matrix.default_archs(quick=True)
             for strategy in ShootdownStrategy
             for name, storm in STORMS.items()]
    faults = [(f"faults/{arch}/{name}",
               lambda a=arch, n=name: matrix.run_fault_cell(
                   a, n, matrix.cell_seed(matrix.FAULT_SEED, a, n),
                   quick=True, tries=matrix.FAULT_TRIES))
              for arch in matrix.default_archs(quick=True)
              for name in FAULTS]
    return [check, races, [("races/explore", explore)], faults]


class _FirstFailure:
    """pytest plugin: remember the first failing test or collection."""

    def __init__(self) -> None:
        self.nodeid = ""

    def _note(self, report) -> None:
        if report.failed and not self.nodeid:
            self.nodeid = report.nodeid or report.fspath

    pytest_runtest_logreport = pytest_collectreport = _note


def _pytest(files: list[str]):
    import pytest

    first = _FirstFailure()
    code = pytest.main(["-x", "-q", "-p", "no:cacheprovider",
                        "-p", "no:benchmark", "--hypothesis-seed=0",
                        *(f"--deselect={t}" for t in NOT_JUDGES),
                        "--rootdir", ROOT, "-c", f"{ROOT}/pyproject.toml",
                        *(f"{ROOT}/{f}" for f in files)], plugins=[first])
    if code == 0:
        return ["survived", ""]
    if code in (1, 2, 3):
        return ["killed", first.nodeid or f"pytest exit {int(code)}"]
    return {"crash": f"pytest exit {int(code)}"}


def main(groups: dict[str, list[str]]) -> dict:
    from hypothesis import settings

    settings.register_profile("mutation", database=None)
    settings.load_profile("mutation")
    try:   # warm the imports every child would otherwise repeat
        import pytest  # noqa: F401
        from repro.analysis import flow, matrix  # noqa: F401
    except Exception:   # noqa: BLE001 - a broken tree fails its jobs
        pass
    out: dict = {"static": None, "verdicts": {}}
    static = _fork(_static, JOB_CAP)
    if isinstance(static, list):
        out["static"] = [list(f) for f in static]
    elif isinstance(static, dict):   # the analyzer did not even import
        out["static"] = [["flow", "analysis-error", static["crash"], ""]]
    try:
        families = _families()
    except Exception as exc:   # noqa: BLE001 - run.py kills every row
        families, out["rows_error"] = [], f"body {type(exc).__name__}"
    for family in families:
        rows = _fork(lambda f=family: _rows(f), FAMILY_CAP + ROW_CAP)
        if not isinstance(rows, dict) or "crash" in rows:
            rows = {name: ["timed-out", ""] if rows == "timed-out"
                    else ["killed", f"body {rows['crash']}"]
                    for name, _ in family}
        out["verdicts"].update(rows)
    for name, files in groups.items():
        verdict = _fork(lambda f=files: _pytest(f), JOB_CAP)
        if verdict == "timed-out":
            verdict = ["timed-out", ""]
        elif isinstance(verdict, dict):
            raise SystemExit(f"{name}: {verdict['crash']}")
        out["verdicts"][name] = verdict
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
