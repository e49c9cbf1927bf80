"""Invariant sweeps: run the sanitizer across architectures and workloads.

``python -m repro check`` drives this module: for each of the five pmap
architectures (generic, vax, rt_pc, sun3, ns32082) it boots kernels,
arms the sanitizer hooks (:func:`~repro.analysis.invariants
.install_sanitizer`) and runs three stress workloads that exercise the
machinery the paper's contract protects:

* **fork+COW** — the Table 7-1 zero-fill and fork-256K workloads via
  :mod:`repro.bench.workloads`, driving demand-zero faults, symmetric
  copy-on-write and shadow-chain growth;
* **pageout-pressure** — a memory-starved kernel overcommitted 2x, so
  the paging daemon steals, launders and shootdowns while tasks keep
  refaulting;
* **shootdown** — a 4-CPU kernel under each of the three Section 5.2
  strategies, with cross-CPU touches, protection changes and
  deallocations from another CPU, closed out by ``pmap_update``.

Each workload ends with one final full :func:`check_all`; any violation
at any point raises, and :func:`run_sweeps` reports per-cell results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.invariants import (
    SanitizerError,
    assert_all,
    install_sanitizer,
    uninstall_sanitizer,
)
from repro.bench.testing import BENCH_ARCHS, make_spec
from repro.bench.workloads import MachSUT, measure_fork, measure_zero_fill
from repro.core.constants import FaultType, VMProt
from repro.core.kernel import MachKernel
from repro.pmap.interface import ShootdownStrategy

KB = 1024

#: Machine parameters per swept architecture: the bench table minus
#: the ``sun3_vac`` cache variant, so the check, faultsweep and races
#: matrices keep one row per distinct pmap.
SWEEP_ARCHS: dict[str, dict] = {
    arch: params for arch, params in BENCH_ARCHS.items()
    if arch != "sun3_vac"
}


@dataclass
class SweepResult:
    """Outcome of one (architecture, workload) cell."""

    arch: str
    workload: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAIL"
        tail = f": {self.detail}" if self.detail else ""
        return f"{self.arch:<10} {self.workload:<20} {status}{tail}"


def _spec(arch: str, **overrides):
    kwargs = dict(SWEEP_ARCHS[arch])
    kwargs.update(overrides)
    return make_spec(name=f"sweep-{arch}", pmap_name=arch, **kwargs)


def _sweep_fork_cow(arch: str) -> None:
    """Table 7-1 workloads with the sanitizer armed throughout."""
    sut = MachSUT(_spec(arch))
    install_sanitizer(sut.kernel)
    try:
        measure_zero_fill(sut)
        measure_fork(sut, dirty_bytes=64 * KB)
        # A second fork generation deepens the shadow chains.
        proc = sut.create_process()
        addr = sut.dirty_data(proc, 32 * KB)
        child = sut.fork_op(proc)
        child.task.write(addr, b"child writes through COW")
        grandchild = sut.fork_op(child)
        grandchild.task.write(addr, b"grandchild too")
        sut.reap(grandchild)
        sut.reap(child)
        assert_all(sut.kernel)
    finally:
        uninstall_sanitizer(sut.kernel)


def _sweep_pageout(arch: str) -> None:
    """Overcommit a small machine so the paging daemon must steal."""
    kernel = MachKernel(_spec(arch, memory_frames=32))
    install_sanitizer(kernel)
    try:
        page = kernel.page_size
        task = kernel.task_create(name="hog")
        addr = task.vm_allocate(64 * page)
        for off in range(0, 64 * page, page):
            task.write(addr + off, bytes([off // page % 255 + 1]))
        child = task.fork()
        child.write(addr, b"fork under pressure")
        kernel.pageout_daemon.run()
        # Refault a few evicted pages (pagein from the default pager).
        for off in range(0, 16 * page, page):
            assert task.read(addr + off, 1)[0] == off // page % 255 + 1
        child.terminate()
        kernel.pageout_daemon.run()
        assert_all(kernel)
    finally:
        uninstall_sanitizer(kernel)


def _sweep_shootdown(arch: str) -> None:
    """Cross-CPU mapping changes under all three Section 5.2
    strategies."""
    for strategy in ShootdownStrategy:
        kernel = MachKernel(_spec(arch, ncpus=4), shootdown=strategy)
        install_sanitizer(kernel)
        try:
            page = kernel.page_size
            task = kernel.task_create(name=f"smp-{strategy.value}")
            addr = task.vm_allocate(8 * page)
            # Touch from several CPUs so each TLB caches translations.
            for cpu_id in range(3):
                kernel.set_current_cpu(cpu_id)
                for off in range(0, 8 * page, page):
                    task.write(addr + off, b"x")
            # Mutate the mappings from CPU 0: lower protection, then
            # deallocate half the range.
            kernel.set_current_cpu(0)
            task.vm_protect(addr, 4 * page, False, VMProt.READ)
            task.vm_deallocate(addr + 4 * page, 4 * page)
            # Read through the demoted range from another CPU.
            kernel.set_current_cpu(1)
            for off in range(0, 4 * page, page):
                task.read(addr + off, 1)
            # Close every shootdown window, then audit everything.
            kernel.pmap_system.update()
            if strategy is ShootdownStrategy.LAZY:
                # LAZY bounds staleness at activate-time; emulate the
                # bound by flushing, as pageout must (Section 5.2).
                for cpu in kernel.machine.cpus:
                    cpu.tlb.flush_all()
            kernel.set_current_cpu(0)
            assert_all(kernel)
        finally:
            uninstall_sanitizer(kernel)


WORKLOADS = (
    ("fork+COW", _sweep_fork_cow),
    ("pageout-pressure", _sweep_pageout),
    ("shootdown", _sweep_shootdown),
)


def _run_cell(cell: tuple[str, str]) -> SweepResult:
    """Run one (architecture, workload) cell — module-level so a
    process pool can pickle it.  A sanitizer violation fails the cell
    with its first finding; any other exception also fails the cell
    (naming the crash) rather than escaping — a crash inside a pool
    worker must never strand the parent's ``imap`` iteration or let
    the sweep report clean."""
    arch, name = cell
    workload = dict(WORKLOADS)[name]
    try:
        workload(arch)
    except SanitizerError as exc:
        first = str(exc.violations[0]) if exc.violations else str(exc)
        return SweepResult(arch, name, False, first)
    except Exception as exc:
        return SweepResult(arch, name, False,
                           f"cell crashed: {type(exc).__name__}: {exc}")
    return SweepResult(arch, name, True)


def run_sweeps(archs=None, verbose: bool = False,
               jobs: int | None = None) -> list[SweepResult]:
    """Run every (architecture, workload) cell; returns the results.

    Every cell boots its own kernels and is fully independent, so with
    ``jobs > 1`` the matrix fans out over a process pool (fork), one
    cell per task; results come back in matrix order either way.
    """
    cells = [(arch, name) for arch in (archs or SWEEP_ARCHS)
             for name, _ in WORKLOADS]
    results: list[SweepResult] = []
    if jobs is not None and jobs > 1 and len(cells) > 1:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(jobs, len(cells))) as pool:
            for result in pool.imap(_run_cell, cells):
                results.append(result)
                if verbose:
                    print(str(result))
    else:
        for cell in cells:
            results.append(_run_cell(cell))
            if verbose:
                print(str(results[-1]))
    return results
