"""The randomized fault sweep: arch x fault-scenario survival matrix.

``python -m repro faultsweep`` drives this module.  For each (pmap
architecture, fault scenario) cell it boots a kernel, arms a seeded
:class:`~repro.inject.injector.FaultInjector`, runs a workload that
keeps using memory while the faults land, and then demands all of:

* no hang (everything runs on the simulated clock; stalls become
  bounded retries, then typed errors);
* every failure the workload saw was a *typed* ``VMError`` — never a
  bare crash, never silently wrong data;
* :func:`repro.analysis.invariants.assert_all` passes — the MI/MD
  structures are still mutually consistent after the storm;
* the kernel still works: a fresh task can allocate, write, read and
  terminate after the injector is disarmed.

Each cell derives its seed from the base seed and the cell name, so a
failure report names exactly the seed that reproduces it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.analysis.invariants import assert_all
from repro.analysis.sweeps import SWEEP_ARCHS
from repro.bench.testing import QUICK_ARCHS, make_spec
from repro.core.constants import FaultType
from repro.core.errors import VMError
from repro.core.kernel import MachKernel
from repro.fs.filesystem import FileSystem
from repro.inject.injector import CHAOS, FaultConfig, FaultInjector
from repro.inject.pagers import FaultyPager, StoreBackedPager
from repro.ipc.kernel_server import (
    MSG_VM_ALLOCATE,
    MSG_VM_READ,
    MSG_VM_WRITE,
)
from repro.pager.base import ExternalPagerAdapter, SimpleReadWritePager
from repro.pager.vnode_pager import map_file

#: Default base seed; any 32-bit value works.
DEFAULT_SEED = 0xFA17

#: Fault profile per scenario.
SCENARIO_CONFIGS: dict[str, FaultConfig] = {
    "pager-stall": FaultConfig(pager_stall=0.30),
    "pager-crash": FaultConfig(pager_crash=0.25),
    "pager-garbage": FaultConfig(pager_garbage=0.25),
    "disk-error": FaultConfig(disk_read_error=0.15,
                              disk_write_error=0.15,
                              disk_latency_spike=0.15),
    "ipc-loss": FaultConfig(ipc_drop=0.10, ipc_duplicate=0.05,
                            ipc_delay=0.05),
    "pageout-pressure": CHAOS,
}

@dataclass
class CellResult:
    """Outcome of one (architecture, scenario) cell."""

    arch: str
    scenario: str
    seed: int
    ok: bool
    injected: int = 0
    typed_errors: int = 0
    detail: str = ""

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAIL"
        tail = f": {self.detail}" if self.detail else ""
        return (f"{self.arch:<10} {self.scenario:<18} "
                f"seed={self.seed:<12} faults={self.injected:<4} "
                f"typed_errors={self.typed_errors:<4} {status}{tail}")


def cell_seed(base_seed: int, arch: str, scenario: str) -> int:
    """The deterministic per-cell seed: reproduce one cell without
    replaying the whole sweep."""
    return base_seed ^ zlib.crc32(f"{arch}:{scenario}".encode())


def _boot(arch: str, **overrides) -> MachKernel:
    kwargs = dict(SWEEP_ARCHS[arch])
    kwargs.update(overrides)
    spec = make_spec(name=f"faultsweep-{arch}", pmap_name=arch, **kwargs)
    return MachKernel(spec)


def _object_of(task, addr: int):
    found, entry = task.vm_map.lookup_entry(addr)
    assert found
    return entry.vm_object


def _recover(kernel, task, addr: int) -> bool:
    """After a typed fault error: if the pager was declared dead,
    re-home the object so the workload can keep going (the degraded-
    service path the tentpole demands).  Returns True when the object
    was adopted — its unfetched pages legitimately read as zeros from
    then on."""
    obj = _object_of(task, addr)
    if obj is not None and obj.pager_dead:
        kernel.adopt_orphaned_object(obj)
        return True
    return False


# ----------------------------------------------------------------------
# Scenario workloads.  Each returns the number of typed VMErrors the
# workload absorbed; anything *else* escaping is a real bug and fails
# the cell.
# ----------------------------------------------------------------------

def _scenario_faulty_pager(kernel, injector, quick: bool) -> int:
    """fork/COW + pageout over a randomly misbehaving pager."""
    page = kernel.page_size
    npages = 6 if quick else 16
    pattern = bytes(range(256)) * (npages * page // 256 + 1)
    pager = FaultyPager(StoreBackedPager(pattern[:npages * page]),
                        injector)
    task = kernel.task_create(name="client")
    errors = 0
    degraded = False
    with injector.armed():
        addr = kernel.vm_allocate_with_pager(task, npages * page, pager)
        for i in range(npages):
            try:
                # Probe byte page_start+1: the pattern there is a
                # nonzero 0x01, so real data, zero fill and garbage
                # are all distinguishable.
                got = task.read(addr + i * page + 1, 1)
                expect = bytes([(i * page + 1) % 256])
                ok_values = (expect, b"\x00") if degraded else (expect,)
                assert got in ok_values, \
                    f"silent corruption at page {i}: {got!r}"
            except VMError:
                errors += 1
                degraded |= _recover(kernel, task, addr)
            try:
                task.write(addr + i * page, b"W")
            except VMError:
                errors += 1
                degraded |= _recover(kernel, task, addr)
        # Fork mid-storm: COW over the (possibly degraded) object.
        child = task.fork()
        try:
            child.write(addr, b"child")
        except VMError:
            errors += 1
            _recover(kernel, child, addr)
        child.terminate()
        # Pageout under a faulty backing store must not lose pages.
        kernel.pageout_daemon.run()
    # After the storm: every page is still readable (from memory, the
    # pager store, or zero-fill degradation — but never a hang).
    for i in range(npages):
        try:
            task.read(addr + i * page, 1)
        except VMError:
            errors += 1
            _recover(kernel, task, addr)
    task.terminate()
    return errors


def _scenario_disk_error(kernel, injector, quick: bool) -> int:
    """Memory-mapped file reads + file-backed swap pageout over a
    flaky disk."""
    page = kernel.page_size
    fs = FileSystem(kernel.machine, nblocks=4096)
    nblocks = 4 if quick else 12
    fs.create("/data")
    fs.write("/data", bytes(range(256)) * (nblocks * fs.block_size
                                           // 256))
    # Push the file to the platters: read_direct prefers dirty
    # buffers, and the whole point here is to hit the (flaky) disk.
    fs.buffer_cache.sync()
    kernel.attach_swap_filesystem(fs, total_slots=256)
    task = kernel.task_create(name="reader")
    addr = map_file(kernel, task, fs, "/data")
    errors = 0
    with injector.armed(fs.disk):
        for off in range(0, nblocks * fs.block_size, page):
            try:
                task.read(addr + off, 1)
            except VMError:
                errors += 1
        # Dirty anonymous memory, then force pageout through the
        # file-backed swap: write errors must keep pages dirty.
        anon = task.vm_allocate(8 * page)
        for off in range(0, 8 * page, page):
            task.write(anon + off, bytes([off // page + 1]))
        kernel.pageout_daemon.run(target=kernel.vm.resident.free_count
                                  + 4)
    # Disarmed: all anonymous data must still be intact.
    for off in range(0, 8 * page, page):
        assert task.read(anon + off, 1) == bytes([off // page + 1]), \
            f"anonymous page {off // page} lost under disk faults"
    task.terminate()
    return errors


def _scenario_ipc_loss(kernel, injector, quick: bool) -> int:
    """Kernel-server RPCs and the message-based external-pager
    protocol over a lossy transport."""
    page = kernel.page_size
    rounds = 4 if quick else 12
    task = kernel.task_create(name="rpc-client")
    server = kernel.server
    errors = 0
    with injector.armed():
        for i in range(rounds):
            try:
                reply = server.call(task.task_port, MSG_VM_ALLOCATE,
                                    size=page)
                _, fields = server.result_of(reply)
                addr = fields["address"]
                payload = f"round {i}".encode()
                server.call(task.task_port, MSG_VM_WRITE, address=addr,
                            data=payload)
                reply = server.call(task.task_port, MSG_VM_READ,
                                    address=addr, size=len(payload))
                _, fields = server.result_of(reply)
                assert fields["data"] == payload, \
                    f"RPC data corrupted in round {i}"
            except VMError:
                errors += 1
        # The three-port external-pager protocol under message loss:
        # unanswered data_requests must time out, not hang.
        adapter = ExternalPagerAdapter(
            SimpleReadWritePager(b"lossy" * page), kernel=kernel)
        pages = 2 if quick else 4
        addr = kernel.vm_allocate_with_pager(task, pages * page, adapter)
        for off in range(0, pages * page, page):
            try:
                task.read(addr + off, 4)
            except VMError:
                errors += 1
                _recover(kernel, task, addr)
    task.terminate()
    return errors


def _scenario_pageout_pressure(kernel, injector, quick: bool) -> int:
    """Everything at once on a memory-starved kernel: the paging
    daemon steals anonymous *and* pager-backed pages while the pager,
    the transport and the kernel-server RPC path are all fault-armed."""
    page = kernel.page_size
    npages = 16 if quick else 32
    task = kernel.task_create(name="hog")
    addr = task.vm_allocate(npages * page)
    pager = FaultyPager(StoreBackedPager(bytes(npages * page)),
                        injector)
    errors = 0
    with injector.armed():
        ext = kernel.vm_allocate_with_pager(task, npages * page, pager)
        for off in range(0, npages * page, page):
            try:
                task.write(addr + off, bytes([off // page % 255 + 1]))
                task.write(ext + off, b"E")
            except VMError:
                errors += 1
                _recover(kernel, task, ext)
            if off // page % 4 == 0:
                try:
                    server = kernel.server
                    reply = server.call(task.task_port,
                                        MSG_VM_READ,
                                        address=addr + off, size=1)
                    server.result_of(reply)
                except VMError:
                    errors += 1
        try:
            child = task.fork()
            child.write(addr, b"\xff")
            child.terminate()
        except VMError:
            errors += 1
        kernel.pageout_daemon.run()
    # Anonymous memory pages out through the default pager (in-memory
    # swap here), so nothing can have been lost.
    for off in range(0, npages * page, page):
        value = task.read(addr + off, 1)[0]
        assert value in (off // page % 255 + 1, 0xFF), \
            f"anonymous page {off // page} corrupted under pressure"
    task.terminate()
    return errors


SCENARIOS = {
    "pager-stall": _scenario_faulty_pager,
    "pager-crash": _scenario_faulty_pager,
    "pager-garbage": _scenario_faulty_pager,
    "disk-error": _scenario_disk_error,
    "ipc-loss": _scenario_ipc_loss,
    "pageout-pressure": _scenario_pageout_pressure,
}


def _probe_alive(kernel) -> None:
    """The kernel must still serve a brand-new task after the storm."""
    task = kernel.task_create(name="probe")
    addr = task.vm_allocate(2 * kernel.page_size)
    task.write(addr, b"still alive")
    assert task.read(addr, 11) == b"still alive", \
        "kernel corrupted: fresh task reads wrong data"
    task.terminate()


def run_cell_injecting(arch: str, scenario: str, seed: int,
                       quick: bool = False,
                       max_tries: int = 8) -> CellResult:
    """Run one cell, hopping deterministically to ``seed+1, seed+2,
    ...`` until at least one fault is actually injected (an all-quiet
    roll proves nothing).  A failing attempt is returned immediately —
    with its exact seed — regardless of its fault count."""
    result = None
    for attempt in range(max_tries):
        result = run_cell(arch, scenario, seed + attempt, quick=quick)
        if not result.ok or result.injected > 0:
            return result
    return result


def run_cell(arch: str, scenario: str, seed: int,
             quick: bool = False) -> CellResult:
    """Run one (architecture, scenario) cell under *seed*."""
    config = SCENARIO_CONFIGS[scenario]
    memory = {"pageout-pressure": 32, "disk-error": 96}.get(scenario)
    overrides = {"memory_frames": memory} if memory else {}
    kernel = _boot(arch, **overrides)
    injector = FaultInjector(seed, config)
    try:
        typed_errors = SCENARIOS[scenario](kernel, injector, quick)
        assert_all(kernel)
        _probe_alive(kernel)
        assert_all(kernel)
    except Exception as exc:  # noqa: BLE001 - reported per cell
        injector.disarm()
        return CellResult(arch, scenario, seed, ok=False,
                          injected=injector.faults_injected,
                          detail=f"{type(exc).__name__}: {exc} "
                                 f"[replay: seed={seed}]")
    return CellResult(arch, scenario, seed, ok=True,
                      injected=injector.faults_injected,
                      typed_errors=typed_errors)


def _run_matrix_cell(cell: tuple[str, str, int, bool]) -> CellResult:
    """One (arch, scenario, seed, quick) cell — module-level so a
    process pool can pickle it."""
    arch, scenario, seed, quick = cell
    return run_cell_injecting(arch, scenario, seed, quick=quick)


def run_faultsweep(archs=None, scenarios=None, seed: int = DEFAULT_SEED,
                   quick: bool = False, verbose: bool = False,
                   jobs: int | None = None) -> list[CellResult]:
    """Run the full survival matrix; returns one result per cell.

    Every cell's seed derives deterministically from *seed* and the
    cell name (see :func:`cell_seed`), so any failure is replayable in
    isolation via ``run_cell`` — which also makes the cells fully
    independent: with ``jobs > 1`` the matrix fans out over a process
    pool (fork), results returned in matrix order.
    """
    if archs is None:
        archs = QUICK_ARCHS if quick else tuple(SWEEP_ARCHS)
    if scenarios is None:
        scenarios = tuple(SCENARIOS)
    cells = [(arch, scenario, cell_seed(seed, arch, scenario), quick)
             for arch in archs for scenario in scenarios]
    results: list[CellResult] = []
    if jobs is not None and jobs > 1 and len(cells) > 1:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(jobs, len(cells))) as pool:
            for result in pool.imap(_run_matrix_cell, cells):
                results.append(result)
                if verbose:
                    print(str(result))
    else:
        for cell in cells:
            results.append(_run_matrix_cell(cell))
            if verbose:
                print(str(results[-1]))
    return results
