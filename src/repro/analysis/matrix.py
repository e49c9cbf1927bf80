"""One matrix runner for ``repro check``'s sweeps, ``faultsweep`` and
``races``.

A :class:`Cell` runs one scenario from :mod:`repro.analysis.scenarios`
on one pmap under one Section 5.2 strategy, with a seed.  The scenario
decides what watches it: one with a fault profile runs under the fault
injector (after which a fresh task must still work), every other one
runs threads under a seeded-random schedule with the sanitizer armed.
:func:`run_cell` boots, arms, runs the body, then
:func:`settle_and_audit`; anything that raises, boot included, fails
that cell alone.  A view's row is a tuple of
cells (:func:`run_row`) that stops at its first failure and sums its
counters; the views build rows, fan them out over the flow passes'
fork pool and format lines.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence

from repro.analysis.flow import imap_cells
from repro.analysis.invariants import (
    SanitizerError,
    assert_all,
    install_sanitizer,
)
from repro.analysis.scenarios import (
    EXPLORE,
    FAULTS,
    STORMS,
    Scenario,
    Scene,
)
from repro.analysis.schedules import (
    ExplorationResult,
    SeededRandomPolicy,
    explore_schedules,
)
from repro.bench.testing import BENCH_ARCHS, QUICK_ARCHS, make_spec
from repro.core.kernel import MachKernel
from repro.inject.injector import FaultInjector
from repro.pmap.interface import ShootdownStrategy
from repro.sched.scheduler import SchedulePolicy, Scheduler

#: Default base seeds; any 32-bit value works.
FAULT_SEED = 0xFA17
RACE_SEED = 0xACE5

#: Seeds a faultsweep cell may roll through until a fault lands.
FAULT_TRIES = 8


def default_archs(quick: bool = False) -> tuple[str, ...]:
    """The swept architectures: three MMU shapes when *quick*."""
    return QUICK_ARCHS if quick else tuple(BENCH_ARCHS)


def cell_seed(base: int, *parts: str) -> int:
    """The deterministic per-cell seed: a 32-bit base mixed with the
    cell's name, so one cell replays without the others."""
    return (base ^ zlib.crc32(":".join(parts).encode())) & 0xFFFFFFFF


def boot(arch: str,
         strategy: ShootdownStrategy = ShootdownStrategy.IMMEDIATE,
         **machine) -> MachKernel:
    """Boot *arch*'s swept machine with *machine* overrides."""
    spec = make_spec(name=f"sweep-{arch}", pmap_name=arch,
                     **{**BENCH_ARCHS[arch], **machine})
    return MachKernel(spec, shootdown=strategy)


def settle_and_audit(kernel: MachKernel) -> None:
    """Close every shootdown window, then audit the whole kernel."""
    kernel.pmap_system.update()
    if kernel.pmap_system.strategy is ShootdownStrategy.LAZY:
        # LAZY bounds staleness at activate time; emulate the bound
        # before auditing, as pageout must (Section 5.2).
        for cpu in kernel.machine.cpus:
            cpu.tlb.flush_all()
    kernel.set_current_cpu(0)
    assert_all(kernel)


def _probe_alive(kernel: MachKernel) -> None:
    """The kernel must still serve a brand-new task after the storm."""
    task = kernel.task_create(name="probe")
    addr = task.vm_allocate(2 * kernel.page_size)
    task.write(addr, b"still alive")
    assert task.read(addr, 11) == b"still alive", \
        "kernel corrupted: fresh task reads wrong data"
    task.terminate()


@dataclass(frozen=True)
class Cell:
    """One scenario run on one architecture."""

    arch: str
    scenario: Scenario
    strategy: ShootdownStrategy = ShootdownStrategy.IMMEDIATE
    #: The injector's fault seed; a storm cell schedules its threads
    #: with ``cell_seed(seed, arch, strategy, scenario)``.
    seed: int = 0
    quick: bool = False
    #: Injector cells roll on to ``seed+1, seed+2, ...`` while no fault
    #: was injected (an all-quiet roll proves nothing), up to this many
    #: seeds in all.
    tries: int = 1


#: The counters a row sums over its cells.
COUNTERS = ("injected", "typed_errors")


@dataclass
class CellResult:
    """Outcome of one cell, or of one row of cells."""

    #: The cell that failed, or the last one run.
    cell: Cell
    ok: bool = True
    #: ``"Type: message"`` of the exception that failed the cell.
    error: str = ""
    #: The first sanitizer violation, when that was the failure.
    violation: str = ""
    injected: int = 0
    typed_errors: int = 0


def _run_once(cell: Cell,
              policy: Optional[SchedulePolicy] = None) -> CellResult:
    scenario = cell.scenario
    result = CellResult(cell)
    scene = Scene(quick=cell.quick)
    try:
        scene.kernel = kernel = boot(cell.arch, cell.strategy,
                                     **scenario.machine)
        if scenario.faults is not None:
            scene.injector = FaultInjector(cell.seed, scenario.faults)
        else:
            install_sanitizer(kernel)
            if policy is None:
                policy = SeededRandomPolicy(cell_seed(
                    cell.seed, cell.arch, cell.strategy.value,
                    scenario.name))
            scene.sched = Scheduler(
                kernel, timer_tick_every=scenario.tick_every,
                policy=policy)
        typed_errors = scenario.body(scene) or 0
        settle_and_audit(kernel)
        if scene.injector is not None:
            _probe_alive(kernel)
            assert_all(kernel)
        result.typed_errors = typed_errors
    except Exception as exc:   # noqa: BLE001 - reported per cell
        result.ok = False
        result.error = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, SanitizerError):
            result.violation = str(exc.violations[0]) \
                if exc.violations else str(exc)
    finally:
        if scene.injector is not None:
            scene.injector.disarm()
            result.injected = scene.injector.faults_injected
    return result


def run_cell(cell: Cell,
             policy: Optional[SchedulePolicy] = None) -> CellResult:
    """Run one cell; *policy* replaces a storm's seeded schedule.

    A failing roll returns at once, with its exact seed, whatever its
    fault count."""
    for attempt in range(cell.tries):
        result = _run_once(replace(cell, seed=cell.seed + attempt),
                           policy)
        if not result.ok or result.injected:
            break
    return result


def run_row(cells: Sequence[Cell]) -> CellResult:
    """Run *cells* in order as one reported row: stop at the first
    failing cell, and add up the counters."""
    totals = dict.fromkeys(COUNTERS, 0)
    for cell in cells:
        result = run_cell(cell)
        for name in COUNTERS:
            totals[name] += getattr(result, name)
        if not result.ok:
            break
    return replace(result, **totals)


def run_matrix(rows: Iterable[Sequence[Cell]], jobs: Optional[int] = None,
               echo: Optional[Callable[[CellResult], str]] = None
               ) -> list[CellResult]:
    """Run every row; with *echo*, print each row's line as it lands.
    Results come back in row order, serial or pooled."""
    results = []
    for result in imap_cells(run_row, rows, jobs):
        results.append(result)
        if echo is not None:
            print(echo(result))
    return results


# -- repro check: the sanitizer over every pmap

def sweep_row(arch: str, scenario: str) -> tuple[Cell, ...]:
    storm = STORMS[scenario]
    return tuple(Cell(arch, storm, strategy)
                 for strategy in storm.strategies)


def sweep_line(result: CellResult) -> str:
    detail = result.violation or (f"cell crashed: {result.error}"
                                  if result.error else "")
    tail = f": {detail}" if detail else ""
    status = "ok" if result.ok else "FAIL"
    return (f"{result.cell.arch:<10} {result.cell.scenario.name:<20} "
            f"{status}{tail}")


def run_sweeps(archs=None, verbose: bool = False,
               jobs: Optional[int] = None) -> list[CellResult]:
    """Every (architecture, check scenario) row."""
    rows = [sweep_row(arch, name) for arch in (archs or BENCH_ARCHS)
            for name in STORMS]
    return run_matrix(rows, jobs, sweep_line if verbose else None)


# -- repro faultsweep: survival under injected faults

def run_fault_cell(arch: str, scenario: str, seed: int,
                   quick: bool = False, tries: int = 1) -> CellResult:
    """Replay one faultsweep cell under exactly *seed* (rolling on
    through up to *tries* seeds while no fault lands)."""
    return run_cell(Cell(arch, FAULTS[scenario], seed=seed,
                         quick=quick, tries=tries))


def fault_line(result: CellResult) -> str:
    cell = result.cell
    status = "ok" if result.ok else "FAIL"
    tail = (f": {result.error} [replay: seed={cell.seed}]"
            if result.error else "")
    return (f"{cell.arch:<10} {cell.scenario.name:<18} "
            f"seed={cell.seed:<12} faults={result.injected:<4} "
            f"typed_errors={result.typed_errors:<4} {status}{tail}")


def run_faultsweep(archs=None, scenarios=None, seed: int = FAULT_SEED,
                   quick: bool = False, verbose: bool = False,
                   jobs: Optional[int] = None) -> list[CellResult]:
    """The survival matrix: no hang, only typed errors, a clean audit,
    and a kernel that still serves a fresh task, in every cell."""
    rows = [(Cell(arch, FAULTS[name], seed=cell_seed(seed, arch, name),
                  quick=quick, tries=FAULT_TRIES),)
            for arch in (archs or default_archs(quick))
            for name in (scenarios or FAULTS)]
    return run_matrix(rows, jobs, fault_line if verbose else None)


# -- repro races: the storm and the schedule explorer

def race_row(arch: str, strategy: ShootdownStrategy,
             seed: int) -> tuple[Cell, ...]:
    return tuple(Cell(arch, storm, strategy, seed)
                 for storm in STORMS.values())


def run_race_cell(arch: str, strategy: ShootdownStrategy,
                  seed: int) -> CellResult:
    """Replay one storm row: every storm on (arch, strategy)."""
    return run_row(race_row(arch, strategy, seed))


def race_line(result: CellResult) -> str:
    cell = result.cell
    status = "ok" if result.ok else "FAIL"
    detail = result.violation or result.error
    tail = f": {cell.scenario.name}: {detail}" if detail else ""
    return (f"{cell.arch:<10} {cell.strategy.value:<10} {status:<5} "
            f"[replay: seed={cell.seed:#x}]{tail}")


def run_races(archs: Optional[Sequence[str]] = None,
              strategies: Optional[Sequence[ShootdownStrategy]] = None,
              seed: int = RACE_SEED, quick: bool = False,
              verbose: bool = False,
              jobs: Optional[int] = None) -> list[CellResult]:
    """The storm: arch x strategy rows, the sanitizer armed.  A
    correct kernel passes every row — DEFERRED and LAZY staleness inside
    open windows is sanctioned, and IMMEDIATE flushes synchronously."""
    rows = [race_row(arch, strategy, seed)
            for arch in (archs or default_archs(quick))
            for strategy in (strategies or ShootdownStrategy)]
    return run_matrix(rows, jobs, race_line if verbose else None)


def explore_shootdown(arch: str = "generic",
                      strategy: ShootdownStrategy =
                      ShootdownStrategy.DEFERRED,
                      max_schedules: int = 150) -> ExplorationResult:
    """Bounded DFS over schedules of the small shootdown workload."""
    cell = Cell(arch, EXPLORE, strategy)

    def one_schedule(policy) -> dict:
        result = run_cell(cell, policy)
        if result.ok:
            return {"ok": True}
        return {"ok": False, "detail": result.violation or result.error}

    return explore_schedules(one_schedule, max_schedules=max_schedules)
