"""The matrix runner itself.

A crash anywhere in a cell — at boot or in its scenario body — must
fail that cell alone, naming it, in every view, serial or pooled,
instead of escaping the worker, hanging the pool, or letting the matrix
report clean.  Pooled runs must equal serial ones, and the one seed
function must keep every seed the old per-view functions derived.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.analysis.matrix as matrix
from repro.analysis import scenarios
from repro.analysis.matrix import (
    FAULT_SEED,
    RACE_SEED,
    CellResult,
    cell_seed,
    fault_line,
    race_line,
    run_faultsweep,
    run_races,
    run_sweeps,
    sweep_line,
)
from repro.analysis.scenarios import STORMS
from repro.pmap.interface import ShootdownStrategy


def _crashing(scene) -> None:
    arch = scene.kernel.machine.spec.pmap_name
    raise RuntimeError(f"workload exploded on {arch}")


def _crash_on_vax(scene) -> None:
    if scene.kernel.machine.spec.pmap_name == "vax":
        _crashing(scene)


@pytest.fixture
def crashing_workload(monkeypatch):
    """Replace the fork+COW workload with one that raises outright
    (not a SanitizerError — an unexpected crash)."""
    monkeypatch.setitem(STORMS, "fork+COW",
                        replace(STORMS["fork+COW"], body=_crashing))


def _cells(results: list[CellResult]):
    return {(r.cell.arch, r.cell.scenario.name): r for r in results}


class TestFailurePropagation:
    def test_serial_crash_fails_the_cell(self, crashing_workload):
        results = run_sweeps(archs=["generic"])
        cell = _cells(results)[("generic", "fork+COW")]
        assert not cell.ok
        line = sweep_line(cell)
        assert "cell crashed" in line
        assert "workload exploded on generic" in line
        # The crash names its cell in the printed form too.
        assert "generic" in line and "fork+COW" in line

    def test_pool_crash_fails_the_cell_without_hanging(
            self, crashing_workload):
        """--jobs path: the worker returns a failing result; the other
        cells still run and report (no hang, no lost results)."""
        results = run_sweeps(archs=["generic"], jobs=2)
        by_cell = _cells(results)
        assert len(results) == len(STORMS)
        crashed = by_cell[("generic", "fork+COW")]
        assert not crashed.ok
        assert "RuntimeError" in crashed.error
        for name in ("pageout-pressure", "shootdown"):
            assert by_cell[("generic", name)].ok

    def test_crash_does_not_taint_the_report(self, crashing_workload):
        """Exactly the crashed cell fails — a clean report with a
        crashed worker would be lying."""
        results = run_sweeps(archs=["generic"])
        assert [r.ok for r in results] == [False, True, True]


class TestHealthySweep:
    def test_generic_matrix_is_clean(self):
        results = run_sweeps(archs=["generic"])
        assert all(r.ok for r in results)
        assert len(results) == len(STORMS)


ARCHS = ["generic", "vax"]

#: view -> (run it on ARCHS, its scenario table, the scenario to crash,
#: its line format, its row count)
VIEWS = {
    "check": (lambda jobs: run_sweeps(archs=ARCHS, jobs=jobs),
              scenarios.STORMS, "fork+COW", sweep_line, 6),
    "faultsweep": (lambda jobs: run_faultsweep(
        archs=ARCHS, scenarios=["pager-stall", "ipc-loss"], quick=True,
        jobs=jobs), scenarios.FAULTS, "pager-stall", fault_line, 4),
    "races": (lambda jobs: run_races(
        archs=ARCHS, strategies=[ShootdownStrategy.IMMEDIATE],
        jobs=jobs), scenarios.STORMS, "fork+COW", race_line, 2),
}


@pytest.mark.parametrize("jobs", [None, 2])
@pytest.mark.parametrize("where", ["boot", "body"])
@pytest.mark.parametrize("view", sorted(VIEWS))
def test_every_view_fails_a_crashing_cell_alone(monkeypatch, view, where,
                                                jobs):
    run, table, scenario, line, rows = VIEWS[view]
    if where == "boot":
        real_boot = matrix.boot

        def boot(arch, *args, **kwargs):
            if arch == "vax":
                raise RuntimeError("workload exploded on vax at boot")
            return real_boot(arch, *args, **kwargs)

        monkeypatch.setattr(matrix, "boot", boot)
    else:
        monkeypatch.setitem(table, scenario,
                            replace(table[scenario], body=_crash_on_vax))
    results = run(jobs)
    assert len(results) == rows
    failed = [r for r in results if not r.ok]
    assert failed
    for result in failed:
        assert result.cell.arch == "vax"
        assert "vax" in line(result)
        assert "workload exploded on vax" in line(result)
    assert all(r.ok for r in results if r.cell.arch == "generic")


@pytest.mark.parametrize("view", sorted(VIEWS))
def test_pooled_results_equal_serial(view):
    run = VIEWS[view][0]
    assert run(2) == run(None)


#: Seeds the faultsweep (arch, scenario) and races (arch, strategy,
#: workload) cells were seeded with before they shared :func:`cell_seed`.
OLD_SEEDS = [
    (FAULT_SEED, ("generic", "pager-stall"), 1989782254),
    (FAULT_SEED, ("sun3", "pageout-pressure"), 647945925),
    (FAULT_SEED, ("ns32082", "ipc-loss"), 1758131275),
    (FAULT_SEED, ("generic", "immediate", "fork+COW"), 2378063702),
    (FAULT_SEED, ("vax", "lazy", "shootdown"), 1837807411),
    (FAULT_SEED, ("rt_pc", "deferred", "pageout-pressure"), 736444249),
    (RACE_SEED, ("generic", "pager-stall"), 1989803036),
    (RACE_SEED, ("sun3", "pageout-pressure"), 647923767),
    (RACE_SEED, ("ns32082", "ipc-loss"), 1758110393),
    (RACE_SEED, ("generic", "immediate", "fork+COW"), 2378041764),
    (RACE_SEED, ("vax", "lazy", "shootdown"), 1837818305),
    (RACE_SEED, ("rt_pc", "deferred", "pageout-pressure"), 736455083),
]


@pytest.mark.parametrize(("base", "parts", "seed"), OLD_SEEDS)
def test_cell_seed_keeps_the_old_seeds(base, parts, seed):
    assert cell_seed(base, *parts) == seed
