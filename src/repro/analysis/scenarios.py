"""The scenario library: every workload the arch x scenario matrices run.

Every body takes the :class:`Scene` that :mod:`repro.analysis.matrix`
booted and armed, and returns how many typed ``VMError`` exceptions it
absorbed (``None`` for none); anything else escaping fails its cell.
The runner settles and audits after the body.  :data:`STORMS` are
threads under a seeded schedule with the sanitizer armed, run by both
``repro check`` and ``races``.  :data:`FAULTS` is ``faultsweep``'s
table (each scenario's fault profile injected) and :data:`EXPLORE` the
schedule explorer's workload, also under the sanitizer.

A body earns its place by what it kills in the mutation kill matrix
(``mutation/``): merge two bodies when the merged one kills every
mutant both killed, and add one only when it kills a mutant no other
body kills.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.constants import VMProt
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
from repro.pmap.interface import ShootdownStrategy
from repro.sched.scheduler import Scheduler

@dataclass
class Scene:
    """What a scenario body runs against: the booted kernel and the
    scheduler or injector the scenario runs under (the other is
    ``None``)."""

    kernel: Optional[MachKernel] = None
    #: The seeded scheduler the storms' threads run under.
    sched: Optional[Scheduler] = None
    injector: Optional[FaultInjector] = None
    quick: bool = False


@dataclass(frozen=True)
class Scenario:
    """One named workload and the machine it needs."""

    name: str
    body: Callable[[Scene], Optional[int]]
    #: Overrides of the swept machine (``ncpus``, ``memory_frames``).
    machine: dict = field(default_factory=dict)
    #: The fault profile: a scenario with one runs under the fault
    #: injector; one without runs threads under a seeded schedule,
    #: with the sanitizer armed.
    faults: Optional[FaultConfig] = None
    #: Scheduler timer period, in slices.
    tick_every: int = 4
    #: The strategies one check row runs, each on a fresh kernel.
    strategies: tuple = (ShootdownStrategy.IMMEDIATE,)


def _table(*scenarios: Scenario) -> dict[str, Scenario]:
    return {scenario.name: scenario for scenario in scenarios}


# -- faultsweep: workloads that keep using memory while faults land

def _object_of(task, addr: int):
    found, entry = task.vm_map.lookup_entry(addr)
    assert found
    return entry.vm_object


def _recover(kernel, task, addr: int) -> bool:
    """After a typed fault error: if the pager was declared dead,
    re-home the object so the workload can keep going (the degraded-
    service path).  Returns True when the object was adopted — its
    unfetched pages legitimately read as zeros from then on."""
    obj = _object_of(task, addr)
    if obj is not None and obj.pager_dead:
        kernel.adopt_orphaned_object(obj)
        return True
    return False


def _fault_pager(scene: Scene) -> int:
    """fork/COW + pageout over a randomly misbehaving pager."""
    kernel, injector = scene.kernel, scene.injector
    page = kernel.page_size
    npages = 6 if scene.quick else 16
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


def _fault_disk(scene: Scene) -> int:
    """Memory-mapped file reads + file-backed swap pageout over a
    flaky disk."""
    kernel, injector = scene.kernel, scene.injector
    page = kernel.page_size
    fs = FileSystem(kernel.machine, nblocks=4096)
    nblocks = 4 if scene.quick else 12
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


def _fault_ipc(scene: Scene) -> int:
    """Kernel-server RPCs and the message-based external-pager
    protocol over a lossy transport."""
    kernel, injector = scene.kernel, scene.injector
    page = kernel.page_size
    rounds = 4 if scene.quick else 12
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
        pages = 2 if scene.quick else 4
        addr = kernel.vm_allocate_with_pager(task, pages * page, adapter)
        for off in range(0, pages * page, page):
            try:
                task.read(addr + off, 4)
            except VMError:
                errors += 1
                _recover(kernel, task, addr)
    task.terminate()
    return errors


def _fault_pageout(scene: Scene) -> int:
    """Everything at once on a memory-starved kernel: the paging
    daemon steals anonymous *and* pager-backed pages while the pager,
    the transport and the kernel-server RPC path are all fault-armed."""
    kernel, injector = scene.kernel, scene.injector
    page = kernel.page_size
    npages = 16 if scene.quick else 32
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


FAULTS = _table(
    Scenario("pager-stall", _fault_pager,
             faults=FaultConfig(pager_stall=0.30)),
    Scenario("pager-crash", _fault_pager,
             faults=FaultConfig(pager_crash=0.25)),
    Scenario("pager-garbage", _fault_pager,
             faults=FaultConfig(pager_garbage=0.25)),
    Scenario("disk-error", _fault_disk, dict(memory_frames=96),
             faults=FaultConfig(disk_read_error=0.15,
                                disk_write_error=0.15,
                                disk_latency_spike=0.15)),
    Scenario("ipc-loss", _fault_ipc,
             faults=FaultConfig(ipc_drop=0.10, ipc_duplicate=0.05,
                                ipc_delay=0.05)),
    Scenario("pageout-pressure", _fault_pageout, dict(memory_frames=32),
             faults=CHAOS),
)


# -- storms: threads under a seeded schedule (check and races)

def _fork_cow(scene: Scene) -> None:
    """Forking under preemption: COW protect/copy shootdowns while
    parent, child and grandchild threads keep writing."""
    kernel, sched = scene.kernel, scene.sched
    page = kernel.page_size
    strict = kernel.pmap_system.strategy is ShootdownStrategy.IMMEDIATE
    parent = kernel.task_create(name="storm-parent")
    addr = parent.vm_allocate(8 * page)
    for off in range(0, 8 * page, page):
        parent.write(addr + off, bytes([off // page + 1]))
    child = parent.fork()
    grandchild = child.fork()

    def writer(ctx):
        for off in range(0, 8 * page, page):
            ctx.write(addr + off, bytes([17 + off // page]))
            yield
        for off in range(0, 8 * page, page):
            got = ctx.read(addr + off, 1)[0]
            # DEFERRED/LAZY legally serve the pre-COW frame while the
            # shootdown window is open; IMMEDIATE must be coherent.
            expected = (17 + off // page,) if strict \
                else (17 + off // page, off // page + 1)
            assert got in expected, (off, got)
            yield

    sched.spawn(parent, writer, name="parent-w")
    sched.spawn(child, writer, name="child-w")
    sched.spawn(grandchild, writer, name="grandchild-w")
    sched.run()
    child.terminate()
    grandchild.terminate()
    # A child that exits while its parent still shares every object:
    # the references it drops must balance the ones the fork took.
    parent.fork().terminate()


def _pageout(scene: Scene) -> None:
    """Memory pressure under preemption: the paging daemon's forced
    shootdowns against threads holding warm TLB entries."""
    kernel, sched = scene.kernel, scene.sched
    page = kernel.page_size
    strict = kernel.pmap_system.strategy is ShootdownStrategy.IMMEDIATE
    hogs = [kernel.task_create(name=f"hog{i}") for i in range(2)]
    spans = [task.vm_allocate(24 * page) for task in hogs]

    def hog(ctx):
        base = spans[hogs.index(ctx.task)]
        for off in range(0, 24 * page, page):
            ctx.write(base + off, bytes([off // page % 200 + 1]))
            yield
        for off in range(0, 24 * page, 4 * page):
            got = ctx.read(base + off, 1)[0]
            # Reclaim + refault relocates frames; inside an open
            # DEFERRED window a stale translation may still reach the
            # old frame, so only IMMEDIATE pins the exact byte.
            if strict:
                assert got == off // page % 200 + 1, (off, got)
            yield

    for task in hogs:
        sched.spawn(task, hog, name=f"{task.name}-t")
    sched.run()
    # Fork under pressure: the daemon steals from copy-on-write memory
    # the parent and child still share.
    child = hogs[0].fork()
    child.write(spans[0], b"fork under pressure")
    kernel.pageout_daemon.run()
    child.terminate()
    kernel.pageout_daemon.run()


def _shootdown(scene: Scene) -> None:
    """Cross-CPU protect/deallocate against concurrent readers: the
    Section 5.2 scenario itself."""
    kernel, sched = scene.kernel, scene.sched
    page = kernel.page_size
    task = kernel.task_create(name="storm-smp")
    addr = task.vm_allocate(12 * page)
    for off in range(0, 12 * page, page):
        task.write(addr + off, b"s")

    def toucher(ctx):
        for off in range(0, 4 * page, page):
            ctx.write(addr + off, b"T")
            yield
            assert ctx.read(addr + off, 1) == b"T"
            yield

    def reader(ctx):
        for _ in range(2):
            for off in range(4 * page, 8 * page, page):
                assert ctx.read(addr + off, 1) in (b"s", b"T")
                yield

    def demoter(ctx):
        yield
        ctx.task.vm_protect(addr + 4 * page, 4 * page, False,
                            VMProt.READ)
        yield
        ctx.task.vm_deallocate(addr + 8 * page, 4 * page)
        yield

    sched.spawn(task, toucher, name="toucher")
    sched.spawn(task, reader, name="reader")
    sched.spawn(task, demoter, name="demoter")
    sched.run()


STORMS = _table(
    Scenario("fork+COW", _fork_cow, dict(ncpus=4)),
    Scenario("pageout-pressure", _pageout,
             dict(ncpus=4, memory_frames=48)),
    Scenario("shootdown", _shootdown, dict(ncpus=4),
             strategies=tuple(ShootdownStrategy)),
)


def _explore_shootdown(scene: Scene) -> None:
    """One schedule of a small two-thread shootdown workload, its
    state (what each TLB holds, what each CPU still owes it, and the
    fault count) hashed so the explorer can prune."""
    kernel, sched = scene.kernel, scene.sched
    cpus = kernel.machine.cpus
    page = kernel.page_size
    task = kernel.task_create(name="explore")
    addr = task.vm_allocate(4 * page)
    for off in range(0, 4 * page, page):
        task.write(addr + off, b"e")

    sched.policy.state_fn = lambda: hash((
        tuple(tuple(entry[1:] for entry in cpu.tlb.snapshot())
              for cpu in cpus),
        tuple(len(cpu._deferred_flushes) for cpu in cpus),
        kernel.stats.faults,
    ))

    def reader(ctx):
        for off in range(0, 4 * page, page):
            assert ctx.read(addr + off, 1) in (b"e", b"w")
            yield

    def mutator(ctx):
        ctx.write(addr, b"w")
        yield
        ctx.task.vm_protect(addr + 2 * page, 2 * page, False,
                            VMProt.READ)
        yield

    sched.spawn(task, reader, name="reader")
    sched.spawn(task, mutator, name="mutator")
    sched.run()


EXPLORE = Scenario("explore", _explore_shootdown, dict(ncpus=2),
                   tick_every=2)
