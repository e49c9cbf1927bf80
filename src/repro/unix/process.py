"""UNIX 4.3bsd emulation on the Mach kernel.

Section 2: "Mach provides complete UNIX 4.3bsd compatibility ... The
UNIX notion of a process is, in Mach, represented by a task with a
single thread of control."  Section 2.1 describes fork: "the newly
created child task address map is created based on the parent's
inheritance values.  By default, all inheritance values for an address
space are set to copy.  Thus the child's address space is, by default, a
copy-on-write copy of the parent's."

This module provides processes with the classic five-region layout the
paper mentions ("A typical VAX UNIX process has five mapping entries
upon creation — one for its UNIX u-area and one each for code, stack,
initialized and uninitialized data"), ``fork``/``exec``/``exit``, and
file I/O implemented the Mach way — through memory objects and the
object cache, not a fixed buffer pool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.core.constants import VMProt, round_page
from repro.core.kernel import MachKernel
from repro.core.task import Task
from repro.fs.filesystem import FileSystem
from repro.pager.vnode_pager import vnode_pager_for

_pids = itertools.count(2)  # pid 1 is init


@dataclass(frozen=True)
class Program:
    """An executable: path plus segment sizes (bytes)."""

    path: str
    text_size: int
    data_size: int
    bss_size: int = 0

    @property
    def image_size(self) -> int:
        """Bytes of the on-disk image (text + initialized data)."""
        return self.text_size + self.data_size


class UnixProcess:
    """A task with a single thread and the five-region UNIX layout."""

    def __init__(self, system: "UnixSystem", task: Task,
                 name: str = "") -> None:
        self.system = system
        self.task = task
        self.pid = next(_pids)
        self.name = name or f"pid{self.pid}"
        #: region name -> (address, size); the five classic regions.
        self.regions: dict[str, tuple[int, int]] = {}
        self.program: Optional[Program] = None
        self.exited = False
        self.children: list["UnixProcess"] = []

    # -- memory regions -----------------------------------------------------

    def region(self, name: str) -> tuple[int, int]:
        """The (address, size) of a named region."""
        return self.regions[name]

    # -- process lifecycle ---------------------------------------------------

    def fork(self) -> "UnixProcess":
        """COW fork: the Mach task fork plus u-area setup."""
        child_task = self.task.fork(name=f"{self.name}-child")
        child = UnixProcess(self.system, child_task)
        child.regions = dict(self.regions)
        child.program = self.program
        self.children.append(child)
        # The u-area is kernel per-process state, copied eagerly; touch
        # it in the child so the copy really happens.
        if "u_area" in child.regions:
            addr, _ = child.regions["u_area"]
            child_task.write(addr, self.task.read(addr, 64))
        return child

    def exec(self, program: Program) -> None:
        """Replace the address space with *program*'s image.

        Text is mapped shared read-only/execute from the file (and
        cached, so re-execs find it resident); initialized data is a
        copy-on-write mapping of the file image; bss, heap and stack are
        fresh zero-fill memory.
        """
        kernel = self.system.kernel
        for address, size in self.regions.values():
            self.task.vm_deallocate(address, size)
        self.regions.clear()
        self.system._build_image(self, program)
        self.program = program

    def exit(self) -> None:
        """Terminate the process and reap its resources."""
        if self.exited:
            return
        self.exited = True
        self.task.terminate()
        if self in self.system.processes:
            self.system.processes.remove(self)

    def wait(self) -> list["UnixProcess"]:
        """Reap exited children."""
        done = [c for c in self.children if c.exited]
        self.children = [c for c in self.children if not c.exited]
        return done

    # -- file I/O (the Mach path: through memory objects) --------------------

    def read_file(self, path: str, size: Optional[int] = None) -> bytes:
        """Read a file the way this system's kernel does."""
        return self.system.read_file(self, path, size)

    def write_file(self, path: str, data: bytes, offset: int = 0,
                   sync: bool = False) -> None:
        """Write a file the way this system's kernel does."""
        self.system.write_file(self, path, data, offset, sync=sync)

    def __repr__(self) -> str:
        prog = self.program.path if self.program else "-"
        return f"UnixProcess(pid={self.pid}, {self.name}, prog={prog})"


class UnixSystem:
    """The 4.3bsd personality: processes, programs and file I/O on one
    Mach kernel."""

    #: Base of the text segment (clear of page-zero for any page size).
    TEXT_BASE = 0x0004_0000
    #: Default stack reservation.
    STACK_SIZE = 64 * 1024

    def __init__(self, kernel: MachKernel, fs: FileSystem) -> None:
        self.kernel = kernel
        self.fs = fs
        self.processes: list[UnixProcess] = []
        self.reads_issued = 0

    @property
    def page_size(self) -> int:
        """The boot-time Mach page size in bytes."""
        return self.kernel.page_size

    # ------------------------------------------------------------------
    # Programs
    # ------------------------------------------------------------------

    def install_program(self, path: str, text_size: int, data_size: int,
                        bss_size: int = 0) -> Program:
        """Write an executable image into the filesystem."""
        program = Program(path, round_page(text_size, self.page_size),
                          round_page(data_size, self.page_size),
                          round_page(bss_size, self.page_size))
        image = bytearray(program.image_size)
        # Recognizable non-zero content so COW/data tests can check it.
        for i in range(0, len(image), 512):
            image[i] = (i // 512) % 255 + 1
        self.fs.write(path, bytes(image))
        return program

    def _build_image(self, proc: UnixProcess, program: Program) -> None:
        kernel = self.kernel
        task = proc.task
        page = self.page_size

        # Text: shared, read/execute, from the file's memory object
        # (kept in the object cache across execs, like "UNIX text
        # segments or other frequently used files").
        pager = vnode_pager_for(self.fs, program.path, cache=True)
        if program.text_size:
            kernel.vm_allocate_with_pager(
                task, program.text_size, pager, offset=0,
                address=self.TEXT_BASE, anywhere=False)
            task.vm_protect(self.TEXT_BASE, program.text_size, True,
                            VMProt.READ | VMProt.EXECUTE)
            task.vm_protect(self.TEXT_BASE, program.text_size, False,
                            VMProt.READ | VMProt.EXECUTE)
            proc.regions["text"] = (self.TEXT_BASE, program.text_size)

        # Initialized data: copy-on-write from the file image.
        data_base = round_page(self.TEXT_BASE + program.text_size, page)
        if program.data_size:
            obj = kernel.vm.objects.create_for_pager(
                pager, program.image_size)
            try:
                kernel._pager_init(pager, obj)
                task.vm_map.allocate(
                    program.data_size, address=data_base, anywhere=False,
                    vm_object=obj, offset=program.text_size,
                    needs_copy=True)
            except Exception:
                # Failed init/allocate: drop the manager's reference
                # so the half-built image does not pin the object.
                kernel.vm.objects.deallocate(obj)
                raise
            proc.regions["data"] = (data_base, program.data_size)

        # Uninitialized data (bss): zero fill.
        bss_base = round_page(data_base + program.data_size, page)
        bss_size = program.bss_size or page
        task.vm_allocate(bss_size, address=bss_base, anywhere=False)
        proc.regions["bss"] = (bss_base, bss_size)

        # Stack: zero fill, just below the top of the address space.
        stack_top = kernel.spec.va_limit - page
        stack_base = stack_top - self.STACK_SIZE
        task.vm_allocate(self.STACK_SIZE, address=stack_base,
                         anywhere=False)
        proc.regions["stack"] = (stack_base, self.STACK_SIZE)

        # u-area: one wired page below the stack.
        u_base = stack_base - page
        task.vm_allocate(page, address=u_base, anywhere=False)
        kernel.wire_range(proc.task, u_base, page)
        proc.regions["u_area"] = (u_base, page)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------

    def create_process(self, program: Optional[Program] = None,
                       name: str = "") -> UnixProcess:
        """Create a new process (optionally exec'ing a program)."""
        task = self.kernel.task_create(name=name or "unix")
        proc = UnixProcess(self, task, name=name)
        self.processes.append(proc)
        if program is not None:
            self._build_image(proc, program)
            proc.program = program
        else:
            # A bare process still has a u-area and stack.
            page = self.page_size
            stack_top = self.kernel.spec.va_limit - page
            stack_base = stack_top - self.STACK_SIZE
            task.vm_allocate(self.STACK_SIZE, address=stack_base,
                             anywhere=False)
            proc.regions["stack"] = (stack_base, self.STACK_SIZE)
            u_base = stack_base - page
            task.vm_allocate(page, address=u_base, anywhere=False)
            proc.regions["u_area"] = (u_base, page)
        return proc

    # ------------------------------------------------------------------
    # File I/O through memory objects (the Mach read/write path)
    # ------------------------------------------------------------------

    def _file_object(self, path: str):
        """The (possibly cached) memory object for a file; caller must
        deallocate the returned reference."""
        pager = vnode_pager_for(self.fs, path, cache=True)
        inode = self.fs.lookup(path)
        obj = self.kernel.vm.objects.create_for_pager(
            pager, round_page(max(inode.size, 1), self.page_size))
        try:
            self.kernel._pager_init(pager, obj)
        except Exception:
            # The caller never saw the reference; drop it here.
            self.kernel.vm.objects.deallocate(obj)
            raise
        return obj, inode

    def read_file(self, proc: UnixProcess, path: str,
                  size: Optional[int] = None) -> bytes:
        """UNIX ``read`` as Mach implements it: pages come from the
        file's memory object (hitting the object cache when warm), then
        are copied out to the caller."""
        kernel = self.kernel
        costs = kernel.machine.costs
        obj, inode = self._file_object(path)
        if size is None:
            size = inode.size
        size = min(size, inode.size)
        out = bytearray()
        page = self.page_size
        try:
            offset = 0
            while offset < size:
                kernel.clock.charge(costs.syscall_us)
                self.reads_issued += 1
                vm_page = kernel.vm.resident.lookup(obj, offset)
                if vm_page is None:
                    vm_page = kernel.request_object_data(obj, offset)
                    if vm_page is not None:
                        kernel.stats.pageins += 1
                if vm_page is None:
                    # Hole (sparse file): zeros.
                    chunk = bytes(min(page, size - offset))
                else:
                    vm_page.busy = False
                    vm_page.referenced = True
                    kernel.vm.resident.activate(vm_page)
                    take = min(page, size - offset)
                    chunk = kernel.machine.physmem.read(
                        vm_page.phys_addr, take)
                kernel.clock.charge(costs.byte_copy_cost(len(chunk)))
                out += chunk
                offset += page
        finally:
            kernel.vm.objects.deallocate(obj)
        return bytes(out[:size])

    def write_file(self, proc: UnixProcess, path: str, data: bytes,
                   offset: int = 0, sync: bool = False) -> None:
        """UNIX ``write`` through the file's memory object: pages are
        modified in the object, staying coherent with any mappings and
        with subsequent reads.  Dirty pages reach the disk when the
        paging daemon launders them (or immediately with ``sync``) —
        there is no fixed buffer pool to write back through."""
        kernel = self.kernel
        costs = kernel.machine.costs
        if not self.fs.exists(path):
            self.fs.create(path)
        inode = self.fs.lookup(path)
        prior_size = inode.size
        self.fs._extend_to(inode, offset + len(data))
        obj, inode = self._file_object(path)
        page = self.page_size
        try:
            cursor = offset
            remaining = data
            while remaining:
                kernel.clock.charge(costs.syscall_us)
                page_off = cursor - cursor % page
                in_page = cursor - page_off
                chunk = remaining[:page - in_page]
                vm_page = kernel.vm.resident.lookup(obj, page_off)
                full_overwrite = in_page == 0 and len(chunk) == page
                if (vm_page is None and not full_overwrite
                        and page_off < prior_size):
                    # Partial write over pre-existing data: fetch it.
                    vm_page = kernel.request_object_data(obj, page_off)
                if vm_page is None:
                    vm_page = kernel.vm.resident.allocate(
                        obj, page_off, busy=True)
                    try:
                        kernel.vm.pmap_system.zero_page(vm_page.phys_addr)
                    except Exception:
                        # Do not strand the busy page off every queue.
                        kernel.vm.resident.free(vm_page)
                        raise
                vm_page.busy = False
                # Queue the page before touching its contents: if the
                # copy below fails, the page is still reclaimable.
                kernel.vm.resident.activate(vm_page)
                kernel.clock.charge(costs.byte_copy_cost(len(chunk)))
                kernel.machine.physmem.write(
                    vm_page.phys_addr + in_page, chunk)
                vm_page.modified = True
                cursor += len(chunk)
                remaining = remaining[len(chunk):]
            if sync:
                kernel.clean_object(obj, 0, obj.size)
        finally:
            kernel.vm.objects.deallocate(obj)

    def fsync(self, path: str) -> None:
        """Force a file's dirty object pages out to the filesystem."""
        obj, _ = self._file_object(path)
        try:
            self.kernel.clean_object(obj, 0, obj.size)
        finally:
            self.kernel.vm.objects.deallocate(obj)
