"""The mutation kill matrix: which checker catches which bug.

``python3 mutation/run.py`` applies every mutant in ``mutants.txt`` to
its own temporary copy of the tree, runs every checker on it, and
writes ``results.json``: per mutant and per checker, ``killed``,
``survived`` or ``timed-out``, plus a summary of who kills what
uniquely.  ``python3 mutation/run.py ID [ID ...]`` re-runs just those
mutants and prints their verdicts; it writes nothing.

The checkers:

* ``static/<pass>`` — the eight static passes, from one cold
  ``run_flow_passes``.  A pass kills a mutant when it reports a
  ``(pass/rule, module, where)`` the clean tree does not;
* ``check/<arch>/<scenario>`` — each ``repro check`` sweep row;
  ``races/<arch>/<strategy>/<storm>`` — each storm cell of a
  ``races --quick`` row; ``races/explore``; and
  ``faults/<arch>/<scenario>`` — each ``faultsweep --quick`` row (see
  ``checkers.py`` for how a kill is attributed to the sanitizer or the
  scenario body);
* ``difftest`` — the differential corpus, ``tests/difftest``;
* ``tier1/<group>`` — tier-1's other test files, in the groups below,
  each run with ``pytest -x``.

Every run gets a fresh working directory, ``PYTHONHASHSEED=0``,
Hypothesis seed 0 and no example database.  At most two mutants run at
once, each running its checkers one at a time.  The clean tree is run
first: a checker that fails there stops the run.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mutants as mutant_list

REPO = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).with_name("results.json")
WORKERS = 2

#: Tier-1 test files (under ``tests/``) by group; ``other`` takes every
#: file not listed, and ``tests/difftest`` is its own checker.
GROUPS = {
    "analyzer": (
        "test_analysis_cache.py", "test_analysis_layering.py",
        "test_callgraph.py", "test_cli.py", "test_flow_cfg.py",
        "test_flow_determinism.py", "test_flow_errorpaths.py",
        "test_flow_lifecycle.py", "test_flow_runner.py",
        "test_pmap_conformance.py", "test_race_static.py",
        "test_typestate.py"),
    "checkers": (
        "test_analysis_invariants.py", "test_fault_matrix.py",
        "test_race_dynamic.py", "test_refcount_audit.py",
        "test_sweeps.py", "test_system_stress.py"),
    "pmap": (
        "test_calibration_lock.py", "test_clock_costs.py",
        "test_execute_protection.py", "test_interface_fidelity.py",
        "test_machine.py", "test_physmem.py",
        "test_pmap_architectures.py", "test_pmap_copy.py",
        "test_pmap_interface.py", "test_pmap_model.py",
        "test_pmap_tables.py", "test_sun3_vac.py", "test_tlb.py",
        "test_tlb_shootdown.py"),
    "vm": (
        "test_address_map.py", "test_collapse_under_paging.py",
        "test_edge_cases.py", "test_fault.py", "test_kernel_misc.py",
        "test_pageout.py", "test_pageout_properties.py",
        "test_properties.py", "test_resident.py", "test_scheduler.py",
        "test_sharing_maps.py", "test_syscall_fuzz.py",
        "test_syscalls.py", "test_task_fork.py", "test_vm_object.py"),
    "pagers": (
        "test_external_pager.py", "test_fault_injection.py",
        "test_file_backed_swap.py", "test_fs.py", "test_ipc.py",
        "test_kernel_server.py", "test_migration.py",
        "test_pager_failures.py", "test_pager_protocol_v2.py",
        "test_pagers.py"),
    "other": (),
}

STATIC = ("lifecycle", "conformance", "errorpaths", "determinism",
          "typestate", "atomicity", "layering", "concurrency")

#: Seconds one mutant's checkers may take in all (checkers.py caps each
#: one; they take about half a minute together).
TREE_CAP = 1800

#: Address-space cap for every checker process: a mutant that grows
#: without bound fails its own checker, not the machine.
MEMORY_CAP = 3 << 30

_IGNORE = shutil.ignore_patterns(".git", ".repro-cache", ".pytest_cache",
                                 ".hypothesis", ".benchmarks", "out",
                                 "*.egg-info", "results.json")


def _test_files(tree: Path) -> dict[str, list[str]]:
    listed = {name for files in GROUPS.values() for name in files}
    files = {group: [f"tests/{name}" for name in names]
             for group, names in GROUPS.items()}
    files["other"] = sorted(f"tests/{p.name}"
                            for p in (tree / "tests").glob("test_*.py")
                            if p.name not in listed)
    return files


def run_one(mutant) -> dict:
    """``checkers.py``'s output on *mutant*'s tree copy (the clean tree
    for None)."""
    tmp = Path(tempfile.mkdtemp(prefix="mutant-"))
    try:
        tree = tmp / "tree"
        shutil.copytree(REPO, tree, ignore=_IGNORE)
        if mutant is not None:
            mutant_list.apply_in(mutant, tree)
        groups = {"difftest": ["tests/difftest"]}
        groups.update((f"tier1/{group}", files)
                      for group, files in _test_files(tree).items())
        cwd = tmp / "cwd"
        cwd.mkdir()
        env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(tmp),
                   PYTHONPATH=str(tree / "src"))
        proc = subprocess.run(
            [sys.executable, str(tree / "mutation" / "checkers.py"),
             json.dumps(groups)], cwd=cwd, env=env, text=True,
            capture_output=True, timeout=TREE_CAP)
        if proc.returncode != 0:
            raise RuntimeError(f"checkers.py failed on {mutant}:\n"
                               f"{proc.stdout}{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _static_verdicts(static, clean: set) -> dict:
    if static is None:
        return {f"static/{p}": ("timed-out", "") for p in STATIC}
    new = sorted({tuple(f) for f in static} - clean)
    out = {}
    for name in STATIC:
        mine = [" ".join(f[1:]) for f in new if f[0] == name]
        out[f"static/{name}"] = ("killed", "; ".join(mine)) if mine \
            else ("survived", "")
    errors = [" ".join(f) for f in new if f[0] not in STATIC]
    for name in STATIC if errors else ():
        out[f"static/{name}"] = ("killed", "; ".join(errors))
    return out


def verdicts_of(raw: dict, clean: dict, checkers: list[str]) -> dict:
    """The full ``{checker: (verdict, detail)}`` of one mutant: a row
    checkers.py could not even build is killed."""
    out = _static_verdicts(raw["static"],
                           {tuple(f) for f in clean["static"]})
    out.update((c, tuple(v)) for c, v in raw["verdicts"].items())
    for checker in checkers:
        out.setdefault(checker, ("killed", raw.get("rows_error", "")))
    return out


def _units(checkers: list[str]) -> dict[str, object]:
    """The judged units, each a predicate over (checker, detail): the
    ``src/`` checkers first (each static pass, the sanitizer, each
    view's scenario bodies), then the tests."""
    units: dict[str, object] = {
        f"static/{name}": (lambda c, v, n=name: c == f"static/{n}")
        for name in STATIC}
    units["sanitizer"] = lambda c, v: v.startswith("sanitizer")
    for view in ("check", "races", "faults"):
        for scenario in sorted({c.rsplit("/", 1)[1] for c in checkers
                                if c.startswith(f"{view}/")
                                and c.count("/") > 1}):
            units[f"{view}-body/{scenario}"] = (
                lambda c, v, w=view, s=scenario:
                c.startswith(f"{w}/") and c.endswith(f"/{s}")
                and v.startswith("body"))
    units["difftest"] = lambda c, v: c == "difftest"
    for group in GROUPS:
        units[f"tier1/{group}"] = lambda c, v, g=group: c == f"tier1/{g}"
    return units


def _is_test(unit: str) -> bool:
    return unit.startswith(("tier1/", "difftest"))


def summarize(rows: list[dict], checkers: list[str]) -> dict:
    """Kill sets per unit and per scenario pair; each ``src/``
    checker's unique kills (killed by no other ``src/`` checker: the
    tests run those checkers too, so they are no rival); the ``src/``
    checkers with none, which are deletion candidates (tests never
    are); and the mutants only tests, or nothing, kill."""
    units = _units(checkers)
    kills = {name: [row["id"] for row in rows if any(
        verdict == "killed" and pred(c, row["detail"].get(c, ""))
        for c, verdict in row["verdicts"].items())]
        for name, pred in units.items()}
    by_src = {row["id"]: [n for n in units
                          if not _is_test(n) and row["id"] in kills[n]]
              for row in rows}
    unique = {name: [m for m in ids if by_src[m] == [name]]
              for name, ids in kills.items() if not _is_test(name)}
    pairs = {}
    for scenario in ("fork+COW", "pageout-pressure", "shootdown"):
        views = {view: [row["id"] for row in rows if any(
            v == "killed" and c.startswith(f"{view}/")
            and c.endswith(f"/{scenario}")
            for c, v in row["verdicts"].items())]
            for view in ("check", "races")}
        views["union"] = sorted(set(views["check"]) | set(views["races"]))
        pairs[scenario] = views
    tested = {m for name, ids in kills.items() if _is_test(name)
              for m in ids}
    return {
        "kills": kills,
        "unique": unique,
        "scenario_pairs": pairs,
        "deletion_candidates": [n for n, ids in unique.items() if not ids],
        "only_tests_kill": [m for m, who in by_src.items()
                            if not who and m in tested],
        "survivors": [m for m, who in by_src.items()
                      if not who and m not in tested],
    }


def _run_all(selected: list) -> tuple[dict, list[dict]]:
    with ThreadPoolExecutor(WORKERS) as pool:
        futures = [pool.submit(run_one, m) for m in [None, *selected]]
        clean = futures[0].result()
        broken = {c: v for c, v in clean["verdicts"].items()
                  if v[0] != "survived"}
        if broken or clean["static"] is None or "rows_error" in clean:
            for future in futures:
                future.cancel()
            raise SystemExit(f"the clean tree fails its checkers: "
                             f"{broken or clean}")
        return clean, [f.result() for f in futures[1:]]


def main(argv: list[str]) -> int:
    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP if hard == resource.RLIM_INFINITY \
        else min(MEMORY_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    everything = mutant_list.load()
    for mutant in everything:      # a bad site stops the run up front
        mutant_list.apply(mutant, (REPO / mutant.file).read_text())
    by_id = {m.id: m for m in everything}
    unknown = [i for i in argv if i not in by_id]
    if unknown:
        print(f"unknown mutant id(s): {', '.join(unknown)}")
        return 2
    selected = [by_id[i] for i in argv] if argv else everything
    start = time.monotonic()
    clean, raws = _run_all(selected)
    checkers = sorted([*clean["verdicts"], *(f"static/{p}"
                                             for p in STATIC)])
    rows = []
    for mutant, raw in zip(selected, raws):
        full = verdicts_of(raw, clean, checkers)
        rows.append({
            "id": mutant.id, "file": mutant.file,
            "function": mutant.function, "op": mutant.op,
            "why": mutant.why,
            "repro": f"python3 mutation/run.py {mutant.id}",
            "verdicts": {c: full[c][0] for c in checkers},
            "detail": {c: full[c][1] for c in checkers if full[c][1]},
        })
        killed = sorted(c for c in checkers if full[c][0] == "killed")
        print(f"{mutant.id}: {len(killed)} killed"
              + (f" ({', '.join(killed)})" if argv else ""))
    if argv:
        for row in rows:
            for checker, detail in sorted(row["detail"].items()):
                print(f"  {row['id']} {checker}: {detail}")
        return 0
    result = {"schema": mutant_list.SCHEMA, "checkers": checkers,
              "mutants": rows, "summary": summarize(rows, checkers)}
    RESULTS.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"{len(rows)} mutants x {len(checkers)} checkers in "
          f"{time.monotonic() - start:.0f}s -> {RESULTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
