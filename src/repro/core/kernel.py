"""The Mach kernel.

Boots a simulated machine, owns the machine-independent VM state
(resident page table, object manager, paging daemon, default pager) and
the machine-dependent pmap system, creates tasks, routes simulated MMU
faults into :func:`repro.core.fault.vm_fault`, and implements the
Table 2-1 task operations plus message passing with copy-on-write
out-of-line data transfer.
"""

from __future__ import annotations

from typing import Optional

from repro.core.address_map import AddressMap
from repro.core.constants import FaultType, VMInherit, VMProt, round_page
from repro.core.errors import (
    DiskIOError,
    InvalidArgumentError,
    PageFault,
    PagerCrashedError,
    PagerDeadError,
    PagerGarbageError,
    PagerStallError,
    PagerTimeoutError,
)
from repro.core.fault import resolve_task_fault, vm_fault, vm_fault_batch
from repro.core.page import VMPage
from repro.core.pageout import PageoutDaemon
from repro.core.resident import ResidentPageTable
from repro.core.statistics import KernelStats, VMStatistics
from repro.core.task import Task
from repro.core.vm_object import VMObjectManager
from repro.hw.machine import Machine, MachineSpec
from repro.ipc.kernel_server import KernelServer
from repro.ipc.message import Message
from repro.ipc.port import DeadPortError, Port
from repro.pager.default_pager import DefaultPager
from repro.pager.protocol import UNAVAILABLE, capabilities_for, \
    normalize_reply
from repro.pager.swap import SwapSpace
from repro.pmap.interface import PmapSystem, ShootdownStrategy
from repro.pmap.registry import pmap_class_for


class VMContext:
    """The bundle of machine-independent VM state shared by address
    maps, the fault handler and the paging daemon."""

    def __init__(self, machine: Machine, pmap_system: PmapSystem,
                 resident: ResidentPageTable,
                 objects: VMObjectManager) -> None:
        self.machine = machine
        self.page_size = machine.page_size
        self.clock = machine.clock
        self.costs = machine.costs
        self.pmap_system = pmap_system
        self.resident = resident
        self.objects = objects


class MachKernel:
    """One booted instance of the (simulated) Mach kernel.

    Args:
        spec: machine description to boot on.
        page_size: boot-time Mach page size ("The definition of page
            size is a boot time system parameter and can be any power of
            two multiple of the hardware page size").
        shootdown: TLB consistency strategy (Section 5.2).
        object_cache_limit: memory objects retained after their last
            reference (Section 3.3's object cache).
        swap_slots: default-pager swap capacity, in pages.
    """

    def __init__(self, spec: MachineSpec,
                 page_size: Optional[int] = None,
                 shootdown: ShootdownStrategy = ShootdownStrategy.IMMEDIATE,
                 object_cache_limit: int = 64,
                 object_cache_page_limit: Optional[int] = None,
                 swap_slots: int = 8192) -> None:
        self.machine = Machine(spec, page_size)
        #: The machine-wide instrumentation bus (alias of
        #: ``machine.events``); every subsystem emits here and every
        #: observer (event recorder, fault telemetry)
        #: attaches here.
        self.events = self.machine.events
        self.pmap_system = PmapSystem(self.machine, shootdown)
        resident = ResidentPageTable(self.machine.physmem)
        objects = VMObjectManager(resident, self.machine.clock,
                                  self.machine.costs,
                                  cache_limit=object_cache_limit,
                                  cache_page_limit=object_cache_page_limit)
        self.vm = VMContext(self.machine, self.pmap_system, resident,
                            objects)
        self._pmap_class = pmap_class_for(spec.pmap_name)
        self.kernel_pmap = self._pmap_class(self.pmap_system,
                                            name="kernel")
        self.stats = KernelStats()
        self.swap = SwapSpace(self.machine, total_slots=swap_slots)
        self.default_pager = DefaultPager(self.swap)
        self.pageout_daemon = PageoutDaemon(self)
        resident.reclaim_hook = self._low_memory
        #: guarded-by kernel-funnel
        self.tasks: list[Task] = []
        self.max_fault_retries = 8
        #: Pluggable page-fault resolver (signature of
        #: :func:`repro.core.fault.vm_fault`): the seam through which
        #: tests swap in a fake.  The differential harness points it at
        #: the pinned reference resolver that lives with it, under
        #: ``tests/difftest/``, and runs that lockstep against the one
        #: fault path.
        #: guarded-by boot-wiring
        self.fault_resolver = vm_fault
        #: Pager failure policy (Section 4's "errant memory manager"
        #: defense).  A transient pager error is retried up to
        #: ``max_pager_retries`` times, charging ``pager_timeout_us``
        #: (doubling per retry) of simulated wait each time; a pager
        #: that exhausts its stall budget is declared dead.  Faults on
        #: objects with a dead pager raise ``PagerDeadError`` unless
        #: ``dead_pager_zero_fill`` asks for degraded zero-filled pages
        #: instead.
        self.pager_timeout_us = 20_000.0
        self.max_pager_retries = 3
        self.dead_pager_zero_fill = False
        #: Protocol v2 readahead policy: advisory extra pages offered
        #: to readahead-capable pagers with each ``data_request`` (0 =
        #: off; every pre-v2 workload is bit-identical at 0).
        #: guarded-by pager-tuning
        self.readahead_pages = 0
        #: The cooperative scheduler driving this kernel, when one is
        #: attached (set by ``Scheduler.__init__``).  During pager
        #: retry backoffs the kernel lends the waiting thread's CPU to
        #: other ready threads through it — a parked fault no longer
        #: serializes unrelated tasks.
        #: guarded-by sched-wiring
        self.scheduler = None
        #: Per-object queues of faults parked on an in-flight pager
        #: request: object_id -> [{offset, parked_at}].  Entries resume
        #: (and leave the queue) when the pager replies, the backoff
        #: deadline passes, or the pager is declared dead.
        #: guarded-by kernel-funnel
        self.pending_faults: dict[int, list] = {}
        #: Debug hook (``repro.analysis.invariants``): called with the
        #: kernel after faults, task lifecycle events and pageout
        #: passes.  None (the default) costs nothing.
        #: guarded-by debug-hook
        self.sanitize_hook = None
        #: Out-of-line message holding maps currently in flight
        #: (id -> AddressMap).  These maps hold object references but
        #: are reachable only through queued messages, so the
        #: reference-count audit needs them as explicit roots.
        #: guarded-by kernel-funnel
        self._ool_in_flight: dict[int, AddressMap] = {}
        #: "The kernel task acts as a server": task/thread ports are
        #: serviced here (Section 2).
        self.server = KernelServer(self)

    def attach_swap_filesystem(self, fs, path: str = "/private/swapfile",
                               total_slots: int = 2048) -> None:
        """Re-home the default pager's backing store into a swap *file*
        on *fs* — "eliminates the traditional Berkeley UNIX need for
        separate paging partitions" (Section 3.3).

        Must be called before any anonymous memory has been paged out.
        """
        from repro.pager.swap import FileBackedSwap
        if self.swap.slots_used:
            raise RuntimeError(
                "cannot switch swap stores with pages already swapped")
        self.swap = FileBackedSwap(fs, self.page_size, path=path,
                                   total_slots=total_slots)
        self.default_pager.swap = self.swap

    # Convenience views ---------------------------------------------------

    @property
    def spec(self) -> MachineSpec:
        """The machine specification this kernel booted on."""
        return self.machine.spec

    @property
    def page_size(self) -> int:
        """The boot-time Mach page size in bytes."""
        return self.machine.page_size

    @property
    def clock(self):
        """The machine's simulated clock."""
        return self.machine.clock

    @property
    def current_cpu(self):
        """The CPU the simulation is currently executing on."""
        return self.machine.cpus[self.pmap_system.current_cpu_id]

    def set_current_cpu(self, cpu_id: int) -> None:
        """Move the simulation's point of execution to another CPU."""
        if not 0 <= cpu_id < len(self.machine.cpus):
            raise InvalidArgumentError(f"no cpu {cpu_id}")
        self.pmap_system.current_cpu_id = cpu_id
        self.events.current_cpu = cpu_id

    def _low_memory(self) -> None:
        # The stage span marks the synchronous-reclamation stall on the
        # *allocating* track (the daemon's own events land on the
        # "daemon" track), so fault telemetry can attribute the stall
        # to ``reclaim`` instead of the stage that allocated.
        with self.events.stage("reclaim"):
            self.pageout_daemon.run()
            if self.vm.resident.free_count == 0:
                # Last resort: drop cached objects and their pages.
                self.vm.objects.flush_cache()

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------

    def task_create(self, parent: Optional[Task] = None,
                    name: str = "") -> Task:
        """Create a task; with *parent*, the child's address space is
        built from the parent's inheritance values (UNIX fork)."""
        self.clock.charge(self.machine.costs.task_create_us)
        pmap = self._pmap_class(self.pmap_system)
        vm_map = AddressMap(self.vm, 0, self.spec.va_limit, pmap=pmap)
        task = Task(self, vm_map, pmap, name=name)
        pmap.name = f"pmap:{task.name}"
        task.task_port = Port(name=f"{task.name}.task_port")
        task.task_port.events = self.events
        task.thread_create()
        self.server.register_task(task)
        if parent is not None:
            parent.vm_map.fork_into(vm_map)
            # Table 3-4: pmap_copy may (optionally) pre-copy hardware
            # mappings so the child faults less; the default
            # implementation does nothing.  It is offered only the
            # copy-inherited object ranges — never NONE-inherited or
            # shared ones.
            for entry in vm_map.entries():
                if entry.vm_object is not None and not entry.is_sub_map:
                    pmap.copy(parent.pmap, entry.start, entry.size,
                              entry.start)
        self.tasks.append(task)
        self.stats.tasks_created += 1
        self.events.emit("task", "create", task=task.name,
                         forked=parent is not None)
        if self.sanitize_hook is not None:
            self.sanitize_hook(self)
        return task

    def task_terminate(self, task: Task) -> None:
        """Tear down a task: map, pmap, ports."""
        if task.terminated:
            return
        task.terminated = True
        for cpu in self.machine.cpus:
            if cpu.active_pmap is task.pmap:
                task.pmap.deactivate(cpu.active_thread, cpu)
        task.vm_map.destroy()
        task.pmap.destroy()
        task.task_port.destroy()
        if task in self.tasks:
            self.tasks.remove(task)
        self.stats.tasks_terminated += 1
        self.events.emit("task", "terminate", task=task.name)
        if self.sanitize_hook is not None:
            self.sanitize_hook(self)

    # ------------------------------------------------------------------
    # Table 2-1 operations
    # ------------------------------------------------------------------

    def vm_allocate(self, task: Task, size: int,
                    address: Optional[int] = None,
                    anywhere: bool = True) -> int:
        """Table 2-1 vm_allocate."""
        self.clock.charge(self.machine.costs.syscall_us)
        return task.vm_map.allocate(size, address=address,
                                    anywhere=anywhere)

    def vm_allocate_with_pager(self, task: Task, size: int, pager,
                               offset: int = 0,
                               address: Optional[int] = None,
                               anywhere: bool = True) -> int:
        """Table 3-2 vm_allocate_with_pager."""
        self.clock.charge(self.machine.costs.syscall_us)
        size = round_page(size, self.page_size)
        obj = self.vm.objects.create_for_pager(pager, offset + size)
        try:
            self._pager_init(pager, obj)
            return task.vm_map.allocate(size, address=address,
                                        anywhere=anywhere,
                                        vm_object=obj, offset=offset)
        except Exception:
            # A failed init/allocate must drop the reference the
            # object manager handed us, or the object lives forever.
            self.vm.objects.deallocate(obj)
            raise

    def _pager_init(self, pager, obj) -> None:
        """Table 3-1 ``pager_init``: tell the pager about its object's
        ports the first time the object is mapped."""
        if obj.pager_initialized:
            return
        if capabilities_for(pager).pager_init:
            pager.pager_init(obj)
        obj.pager_initialized = True

    def vm_deallocate(self, task: Task, address: int, size: int) -> None:
        """Table 2-1 vm_deallocate."""
        self.clock.charge(self.machine.costs.syscall_us)
        task.vm_map.delete_range(address, size)

    def vm_protect(self, task: Task, address: int, size: int,
                   set_maximum: bool, new_protection: VMProt) -> None:
        """Table 2-1 vm_protect."""
        self.clock.charge(self.machine.costs.syscall_us)
        task.vm_map.protect(address, size, new_protection,
                            set_maximum=set_maximum)

    def vm_inherit(self, task: Task, address: int, size: int,
                   new_inheritance: VMInherit) -> None:
        """Table 2-1 vm_inherit."""
        self.clock.charge(self.machine.costs.syscall_us)
        task.vm_map.inherit(address, size, new_inheritance)

    def vm_copy(self, task: Task, source_address: int, count: int,
                dest_address: int) -> None:
        """Virtual (copy-on-write) copy within one task's space; the
        destination range is replaced."""
        self.clock.charge(self.machine.costs.syscall_us)
        task.vm_map.delete_range(dest_address, count)
        task.vm_map.copy_region(source_address, count, task.vm_map,
                                dest_address)

    def vm_read(self, task: Task, address: int, size: int) -> bytes:
        """Table 2-1 vm_read."""
        self.clock.charge(self.machine.costs.syscall_us)
        return self.task_memory_read(task, address, size)

    def vm_write(self, task: Task, address: int, data: bytes) -> None:
        """Table 2-1 vm_write."""
        self.clock.charge(self.machine.costs.syscall_us)
        self.task_memory_write(task, address, data)

    def vm_statistics(self) -> VMStatistics:
        """Table 2-1 vm_statistics."""
        vm = self.vm
        return VMStatistics(
            pagesize=self.page_size,
            free_count=vm.resident.free_count,
            active_count=vm.resident.active_count,
            inactive_count=vm.resident.inactive_count,
            wire_count=vm.resident.wired_count,
            faults=self.stats.faults,
            cow_faults=self.stats.cow_faults,
            zero_fill_count=self.stats.zero_fill_count,
            pageins=self.stats.pageins,
            pageouts=self.stats.pageouts,
            reactivations=self.stats.reactivations,
            objects_created=vm.objects.objects_created,
            shadows_created=vm.objects.shadows_created,
            shadow_collapses=vm.objects.collapses,
            shadow_bypasses=vm.objects.bypasses,
            object_cache_hits=vm.objects.cache_hits,
        )

    # ------------------------------------------------------------------
    # Simulated memory access (drives the MMU; faults as needed)
    # ------------------------------------------------------------------

    def _run_on_cpu(self, task: Task):
        cpu = self.current_cpu
        if cpu.active_pmap is not task.pmap:
            thread = task.threads[0] if task.threads else None
            task.pmap.activate(thread, cpu)
        return cpu

    def translate_for(self, task: Task, vaddr: int, access: FaultType,
                      rmw: bool = False) -> int:
        """Translate one access on the current CPU, resolving faults
        through the machine-independent handler; returns the physical
        address."""
        cpu = self._run_on_cpu(task)
        for _ in range(self.max_fault_retries):
            try:
                return self.machine.mmu.translate(cpu, vaddr, access,
                                                  rmw=rmw)
            except PageFault as hw_fault:
                resolve_task_fault(self, task, hw_fault)
                if self.sanitize_hook is not None:
                    self.sanitize_hook(self)
        raise RuntimeError(
            f"access at {vaddr:#x} did not converge after "
            f"{self.max_fault_retries} faults")

    def _chunks(self, address: int, size: int):
        """Split [address, address+size) at hardware-page boundaries."""
        hw = self.machine.hw_page_size
        cursor = address
        end = address + size
        while cursor < end:
            limit = (cursor - cursor % hw) + hw
            yield cursor, min(end, limit) - cursor
            cursor = min(end, limit)

    def task_memory_read(self, task: Task, address: int,
                         size: int) -> bytes:
        """Load bytes as the task's thread would (TLB + faults)."""
        if size < 0:
            raise InvalidArgumentError(f"negative read size {size}")
        if size == 0:
            return b""
        parts = []
        for vaddr, length in self._chunks(address, size):
            paddr = self.translate_for(task, vaddr, FaultType.READ)
            parts.append(self.machine.physmem.read(paddr, length))
        self.clock.charge(self.machine.costs.byte_copy_cost(size))
        return b"".join(parts)

    def task_memory_write(self, task: Task, address: int,
                          data: bytes) -> None:
        """Store bytes as the task's thread would (TLB + faults)."""
        cursor = 0
        for vaddr, length in self._chunks(address, len(data)):
            paddr = self.translate_for(task, vaddr, FaultType.WRITE)
            self.machine.physmem.write(paddr, data[cursor:cursor + length])
            cursor += length
        self.clock.charge(self.machine.costs.byte_copy_cost(len(data)))

    def task_memory_execute(self, task: Task, address: int) -> None:
        """Simulate an instruction fetch at *address*.

        On machines that enforce execute permission the access requires
        EXECUTE; on the rest, hardware checks read permission only
        (Section 2.1: enforcement "depends on hardware support").
        """
        self.translate_for(task, address, FaultType.EXECUTE)

    def task_memory_rmw(self, task: Task, address: int,
                        delta: int = 1) -> int:
        """A read-modify-write (e.g. an increment instruction): one
        translation needing both read and write permission.  On machines
        with the NS32082 erratum the fault is *misreported* as a read —
        this path exercises the pmap workaround."""
        paddr = self.translate_for(task, address, FaultType.WRITE,
                                   rmw=True)
        value = (self.machine.physmem.read(paddr, 1)[0] + delta) % 256
        self.machine.physmem.write(paddr, bytes([value]))
        return value

    def fault(self, task: Task, vaddr: int, fault_type: FaultType):
        """Resolve one fault directly (without an MMU access) — used by
        tests and by wiring."""
        result = self.fault_resolver(self, task, vaddr, fault_type)
        if self.sanitize_hook is not None:
            self.sanitize_hook(self)
        return result

    def fault_batch(self, task: Task, address: int, npages: int,
                    fault_type: FaultType, wiring: bool = False):
        """Resolve *npages* consecutive faults starting at the page
        containing *address* through the fast lane
        (:func:`repro.core.fault.vm_fault_batch`): one map lookup, one
        shadow-chain walk and at most one shootdown per object-run.

        When a non-default :attr:`fault_resolver` is installed (the
        differential harness's pinned reference), the run degrades to
        page-at-a-time calls through it, so both lanes stay comparable
        through one entry point and a reference kernel's wiring never
        falls through to the fast lane.
        """
        if self.fault_resolver is vm_fault:
            results = vm_fault_batch(self, task, address, npages,
                                     fault_type, wiring=wiring)
        else:
            start = address - address % self.page_size
            results = [self.fault_resolver(
                self, task, start + index * self.page_size, fault_type,
                wiring=wiring) for index in range(npages)]
        if self.sanitize_hook is not None:
            self.sanitize_hook(self)
        return results

    def wire_range(self, task: Task, address: int, size: int) -> None:
        """Fault in and wire every page of a range (kernel-style wired
        memory) — batched, one object-run at a time."""
        end = round_page(address + size, self.page_size)
        start = address - address % self.page_size
        self.fault_batch(task, start, (end - start) // self.page_size,
                         FaultType.WRITE, wiring=True)

    def unwire_range(self, task: Task, address: int, size: int) -> None:
        """Release the wiring taken by :meth:`wire_range`; the pages
        rejoin the pageable pool."""
        end = round_page(address + size, self.page_size)
        cursor = address - address % self.page_size
        while cursor < end:
            result = task.vm_map.lookup(cursor, FaultType.READ)
            if result.vm_object is not None:
                page = self.vm.resident.lookup(result.vm_object,
                                               result.offset)
                if page is not None and page.wired:
                    self.vm.resident.unwire(page)
            cursor += self.page_size

    # ------------------------------------------------------------------
    # Pager plumbing (kernel side)
    # ------------------------------------------------------------------

    def pager_has_data(self, obj, offset: int) -> bool:
        """Ask the object's pager whether it holds data here.

        Pagers whose capabilities do not declare ``has_data`` are
        assumed to potentially hold data anywhere — absence of the
        hook must never silently mean "no data".
        """
        if not capabilities_for(obj.pager).has_data:
            return True
        return obj.pager.has_data(obj, offset)

    def declare_pager_dead(self, obj, cause: Exception) -> None:
        """The object's managing task is errant (crashed, wedged, or
        feeding the kernel garbage): stop talking to it.

        Later faults on the object degrade per ``dead_pager_zero_fill``
        instead of hanging on the pager;
        :meth:`adopt_orphaned_object` can re-home the object to the
        default pager.
        """
        if obj.pager_dead:
            return
        obj.pager_dead = True
        obj.pager_dead_cause = cause
        self.stats.pagers_declared_dead += 1
        # Faults parked on the dead pager resume through their raising
        # _call_pager frames; the queue itself is void.
        self.pending_faults.pop(obj.object_id, None)
        self.events.emit("pager", "declared_dead",
                         object_id=obj.object_id, cause=str(cause))

    def adopt_orphaned_object(self, obj):
        """Re-home an object whose pager was declared dead onto the
        default pager.

        Resident pages stay; paged-out data held by the dead pager is
        lost (further faults on it zero-fill), which is the graceful-
        degradation contract — memory keeps working, stale backing
        store does not come back.  Returns *obj*.
        """
        if not obj.pager_dead:
            raise InvalidArgumentError(
                f"{obj!r}: pager is not dead, nothing to adopt")
        old = obj.pager
        if old is not None:
            if self.vm.objects._by_pager.get(old) is obj:
                del self.vm.objects._by_pager[old]
            if capabilities_for(old).release_object:
                try:
                    old.release_object(obj)
                except Exception:
                    pass  # the pager is dead; a failing release is moot
        # The shared default pager backs many objects, so it never
        # enters the pager -> object registry (see set_pager).
        obj.pager = self.default_pager
        obj.pager_initialized = True
        obj.internal = True
        obj.pager_dead = False
        self.stats.orphans_adopted += 1
        if self.sanitize_hook is not None:
            self.sanitize_hook(self)
        return obj

    def _call_pager(self, obj, op: str, call) -> object:
        """Invoke one pager operation under the failure policy.

        Transient errors (``PagerStallError``, ``DiskIOError``) are
        retried with exponential backoff charged to the simulated
        clock; while the backoff runs, an attached scheduler lends the
        CPU to other ready threads (:meth:`pager_backoff_wait`), so the
        parked fault stops serializing unrelated tasks.  Fatal errors
        (crash/garbage/timeout, dead ports) declare the pager dead and
        re-raise.  A stall budget exhausted becomes
        ``PagerTimeoutError`` (pager dead); a disk budget exhausted
        re-raises ``DiskIOError`` *without* killing the pager — the
        medium may recover.
        """
        transient: Optional[Exception] = None
        with self.events.span("pager", "call", op=op,
                              object_id=obj.object_id) as span:
            for attempt in range(self.max_pager_retries + 1):
                if attempt:
                    self.stats.pager_retries += 1
                    self.events.emit("pager", "retry", op=op,
                                     object_id=obj.object_id,
                                     attempt=attempt)
                    self.pager_backoff_wait(
                        self.pager_timeout_us * (1 << (attempt - 1)))
                try:
                    result = call()
                    span.note(attempts=attempt + 1)
                    return result
                except (PagerStallError, DiskIOError) as exc:
                    transient = exc
                except (PagerCrashedError, PagerGarbageError,
                        PagerTimeoutError) as exc:
                    self.declare_pager_dead(obj, exc)
                    raise
                except DeadPortError as exc:
                    error = PagerCrashedError(
                        f"pager port of {obj!r} is dead: {exc}")
                    self.declare_pager_dead(obj, error)
                    raise error from exc
            if isinstance(transient, DiskIOError):
                raise transient
            error = PagerTimeoutError(
                f"pager of {obj!r} stalled through "
                f"{self.max_pager_retries + 1} {op} attempts: {transient}")
            self.declare_pager_dead(obj, error)
            raise error from transient

    def pager_backoff_wait(self, wait_us: float) -> None:
        """Spend a pager retry backoff without idling the machine.

        The waiting fault keeps the exact PR 2 policy — same deadline,
        same simulated elapsed time — but when a cooperative scheduler
        is attached, the deadline is served by running *other* ready
        threads on the waiting thread's CPU
        (:meth:`repro.sched.scheduler.Scheduler.service_pager_wait`)
        and only the remainder is idle wait.  Without a scheduler this
        is exactly ``clock.wait(wait_us)``.
        """
        clock = self.clock
        deadline = clock.now_us + wait_us
        scheduler = self.scheduler
        if scheduler is not None:
            completed = scheduler.service_pager_wait(deadline)
            if completed:
                self.stats.tasks_completed_during_pager_wait += completed
        remaining = deadline - clock.now_us
        if remaining > 0:
            clock.wait(remaining)

    def _park_fault(self, obj, offset: int) -> dict:
        """Enqueue a fault on the object's pending queue while its
        pager request is in flight."""
        entry = {"offset": offset, "parked_at": self.clock.now_us}
        self.pending_faults.setdefault(obj.object_id, []).append(entry)
        self.stats.faults_parked += 1
        return entry

    def _unpark_fault(self, obj, entry: dict) -> None:
        """Resume bookkeeping: the request was answered (or failed)."""
        queue = self.pending_faults.get(obj.object_id)
        if queue is not None:
            try:
                queue.remove(entry)
            except ValueError:
                pass  # queue voided by declare_pager_dead
            if not queue:
                self.pending_faults.pop(obj.object_id, None)

    def _dead_pager_data(self, obj, offset: int) -> None:
        """Policy for a fault on an object whose pager is dead: degrade
        to zero fill when asked to, else raise the typed error."""
        if self.dead_pager_zero_fill:
            self.stats.dead_pager_zero_fills += 1
            return None
        raise PagerDeadError(
            f"fault at offset {offset:#x} of {obj!r}, whose pager "
            f"was declared dead: {getattr(obj, 'pager_dead_cause', None)}")

    def request_object_data(self, obj, offset: int) -> Optional[VMPage]:
        """``pager_data_request`` round trip, protocol v2: ask the
        object's pager for data; install pages and return the one at
        *offset* (None when unavailable — including a scatter-gather
        reply that skipped the faulting page).

        Pagers advertising a ``transfer_size`` larger than the page size
        (the inode pager's filesystem block size) are asked for a whole
        aligned cluster, and every page of the reply is installed —
        "The physical page size used in Mach is also independent of the
        page size used by memory object handlers" (Section 3.1).
        Readahead-capable pagers additionally get an advisory hint of
        :attr:`readahead_pages` further pages and may reply with any
        subset as scatter-gather ranges.  While the request is in
        flight the fault is parked on the object's pending queue.

        Failure policy: see :meth:`_call_pager`; a well-typed reply of
        the wrong shape (non-bytes) is garbage and kills the pager too.
        """
        if obj.pager_dead:
            return self._dead_pager_data(obj, offset)
        page_size = self.page_size
        caps = capabilities_for(obj.pager)
        cluster = max(caps.transfer_size or page_size, page_size)
        base = offset - offset % cluster
        hint = 0
        if caps.readahead and self.readahead_pages > 0:
            limit = round_page(obj.size, page_size)
            hint = max(0, min(self.readahead_pages * page_size,
                              limit - (base + cluster)))
        obj.paging_in_progress += 1
        parked = self._park_fault(obj, offset)
        try:
            if hint:
                reply = self._call_pager(
                    obj, "data_request",
                    lambda: obj.pager.data_request(obj, base, cluster,
                                                   VMProt.READ, hint))
            else:
                # No hint to offer: the classic 4-argument call, so
                # v1-signature pagers keep working unchanged.
                reply = self._call_pager(
                    obj, "data_request",
                    lambda: obj.pager.data_request(obj, base, cluster,
                                                   VMProt.READ))
        finally:
            self._unpark_fault(obj, parked)
            obj.paging_in_progress -= 1
        try:
            chunks = normalize_reply(reply, base, cluster, page_size)
        except PagerGarbageError as error:
            self.declare_pager_dead(obj, error)
            raise
        result = None
        for off in sorted(chunks):
            data = chunks[off]
            if data is UNAVAILABLE:
                continue
            if off != offset and (off >= obj.size
                                  or self.vm.resident.lookup(obj, off)
                                  is not None):
                continue
            page = self._install_provided_page(obj, off, data,
                                               page_size)
            if off == offset:
                result = page
            else:
                self.vm.resident.activate(page)
                if off < base or off >= base + cluster:
                    self.stats.readahead_pageins += 1
        return result

    def _install_provided_page(self, obj, off: int, data,
                               page_size: int) -> VMPage:
        """Install one pager-provided page (zero-padded to the page)."""
        page = self.vm.resident.allocate(obj, off, busy=True)
        try:
            self.clock.charge(self.machine.costs.copy_cost(page_size))
            chunk = bytes(data)
            if len(chunk) < page_size:
                chunk += bytes(page_size - len(chunk))
            self.machine.physmem.write(page.phys_addr, chunk)
            page.modified = False
            page.page_lock = self._pager_lock_value(obj, off)
        except Exception:
            # The pager-lock query goes back to the pager and can
            # fail; a busy page stranded off every queue would pin
            # its frame for the rest of the run.
            self.vm.resident.free(page)
            raise
        # The fill is complete (the simulation is single-threaded,
        # so the busy window closes before anyone else can look).
        page.busy = False
        return page

    def _pager_lock_value(self, obj, offset: int) -> VMProt:
        """The pager-imposed access lock for a page, if the pager
        tracks locks (``pager_data_lock``)."""
        if not capabilities_for(obj.pager).lock_value_for:
            return VMProt.NONE
        return obj.pager.lock_value_for(obj, offset)

    def pager_unlock_request(self, obj, offset: int,
                             desired: VMProt) -> VMProt:
        """``pager_data_unlock`` round trip: ask the pager to unlock a
        region; returns the lock value afterwards."""
        if capabilities_for(obj.pager).data_unlock:
            #: no-retry — unlock requests are advisory; on a transient
            #: failure the fault retries and re-requests the unlock.
            obj.pager.data_unlock(obj, offset, self.page_size, desired)
        return self._pager_lock_value(obj, offset)

    def pager_write_data(self, obj, offset: int, data: bytes) -> None:
        """``pager_data_write``: push pageout data at the pager.

        Same failure policy as :meth:`request_object_data`; on error
        the caller (pageout daemon / clean_object) must keep the page
        dirty so no data is lost.
        """
        if obj.pager_dead:
            raise PagerDeadError(
                f"pageout to {obj!r}, whose pager was declared dead")
        self._call_pager(obj, "data_write",
                         lambda: obj.pager.data_write(obj, offset, data))

    def clean_object(self, obj, offset: int, length: int) -> None:
        """``pager_clean_request``: write modified cached pages of the
        object back to its pager (the pages stay resident, clean).

        Contiguous dirty pages go to the pager as one ``data_write`` so
        block-structured pagers (the inode pager) can write whole blocks
        instead of read-modify-write cycles per page.
        """
        end = offset + length
        dirty_pages = []
        for page in obj.iter_resident():
            if not offset <= page.offset < end:
                continue
            if (page.modified
                    or self.pmap_system.is_modified(page.phys_addr)):
                dirty_pages.append(page)
        dirty_pages.sort(key=lambda p: p.offset)
        run: list = []
        for page in dirty_pages:
            if run and page.offset != run[-1].offset + self.page_size:
                self._clean_run(obj, run)
                run = []
            run.append(page)
        if run:
            self._clean_run(obj, run)

    def _clean_run(self, obj, run: list) -> None:
        data = bytearray()
        for page in run:
            # Stop further writes racing the clean, then push the data.
            self.pmap_system.copy_on_write(page.phys_addr)
            data += self.machine.physmem.read(page.phys_addr,
                                              self.page_size)
            page.modified = False
            self.pmap_system.clear_modify(page.phys_addr)
        self.pager_write_data(obj, run[0].offset, bytes(data))

    def flush_object(self, obj, offset: int, length: int) -> None:
        """``pager_flush_request``: destroy the object's physically
        cached data in the range (no writeback)."""
        end = offset + length
        for page in obj.iter_resident():
            if not offset <= page.offset < end:
                continue
            self.pmap_system.remove_all(page.phys_addr)
            if page.wired:
                page.wire_count = 0
            self.vm.resident.free(page)

    # ------------------------------------------------------------------
    # Message passing with copy-on-write OOL transfer
    # ------------------------------------------------------------------

    def msg_send(self, task: Task, port: Port, message: Message) -> None:
        """Send *message*; out-of-line regions are snapshotted into
        kernel holding maps by virtual copy — "An entire address space
        may be sent in a single message with no actual data copy
        operations performed."
        """
        costs = self.machine.costs
        self.clock.charge(costs.syscall_us)
        self.clock.charge(costs.byte_copy_cost(message.inline_bytes()))
        for region in message.ool:
            size = round_page(region.size, self.page_size)
            holder = AddressMap(self.vm, 0, size, pmap=None)
            try:
                task.vm_map.copy_region(region.address, size, holder, 0)
            except Exception:
                # A failed snapshot must tear down the partially built
                # holding map (and the object references its entries
                # already took), or they leak un-receivable.
                holder.destroy()
                raise
            region.holding = holder
            self._ool_in_flight[id(holder)] = holder
            if region.deallocate:
                task.vm_map.delete_range(region.address, size)
        message.sender = task
        port.send(message)
        self.stats.messages_sent += 1
        self.events.emit("ipc", "send", task=task.name, port=port.name,
                         ool_regions=len(message.ool))

    def msg_receive(self, task: Task, port: Port) -> Optional[Message]:
        """Receive the next message; out-of-line regions land in the
        receiver's space by copy-on-write remap."""
        message = port.receive()
        if message is None:
            return None
        costs = self.machine.costs
        self.clock.charge(costs.syscall_us)
        self.clock.charge(costs.byte_copy_cost(message.inline_bytes()))
        for region in message.ool:
            size = round_page(region.size, self.page_size)
            holder = region.holding
            dst = holder.copy_region(0, size, task.vm_map, None)
            holder.destroy()
            self._ool_in_flight.pop(id(holder), None)
            region.holding = None
            region.received_at = dst
        self.stats.messages_received += 1
        self.events.emit("ipc", "receive", task=task.name,
                         port=port.name, ool_regions=len(message.ool))
        return message

    def msg_destroy(self, message: Message) -> None:
        """Destroy an unreceived (or undeliverable) message, releasing
        the kernel holding maps of its out-of-line regions."""
        for region in message.ool:
            if region.holding is not None:
                region.holding.destroy()
                self._ool_in_flight.pop(id(region.holding), None)
                region.holding = None

    def __repr__(self) -> str:
        return (f"MachKernel({self.spec.name}, page={self.page_size}, "
                f"{len(self.tasks)} tasks)")
