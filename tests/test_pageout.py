"""Paging daemon tests: queue balancing, second chance, laundering,
default-pager binding."""

import pytest

from repro.core.constants import FaultType
from repro.core.kernel import MachKernel
from repro.pmap.interface import ShootdownStrategy

from tests.conftest import make_spec

PAGE = 4096


class TestReclaim:
    def test_daemon_restores_free_target(self, tiny_kernel):
        kernel = tiny_kernel
        task = kernel.task_create()
        addr = task.vm_allocate(64 * PAGE)
        for off in range(0, 28 * PAGE, PAGE):
            task.write(addr + off, b"z")
        kernel.pageout_daemon.run()
        assert (kernel.vm.resident.free_count
                >= kernel.vm.resident.free_target)

    def test_clean_pages_freed_without_writeback(self, tiny_kernel):
        kernel = tiny_kernel
        task = kernel.task_create()
        addr = task.vm_allocate(16 * PAGE)
        for off in range(0, 16 * PAGE, PAGE):
            task.read(addr + off, 1)      # zero-fill, never written...
        # ...but zero-fill marks pages modified?  No: read faults leave
        # them clean, so reclaiming them writes nothing to swap.
        kernel.pageout_daemon.run(
            target=kernel.vm.resident.physmem.total_frames)
        assert kernel.swap.writes == 0

    def test_dirty_pages_laundred_to_default_pager(self, tiny_kernel):
        kernel = tiny_kernel
        task = kernel.task_create()
        addr = task.vm_allocate(8 * PAGE)
        task.write(addr, b"dirty")
        kernel.pageout_daemon.run(
            target=kernel.vm.resident.physmem.total_frames)
        assert kernel.stats.pageouts >= 1
        assert kernel.swap.slots_used >= 1
        # The object got the default pager bound on first pageout.
        found, entry = task.vm_map.lookup_entry(addr)
        assert entry.vm_object.pager is kernel.default_pager

    def test_data_survives_roundtrip(self, tiny_kernel):
        kernel = tiny_kernel
        task = kernel.task_create()
        addr = task.vm_allocate(8 * PAGE)
        task.write(addr, b"roundtrip")
        kernel.pageout_daemon.run(
            target=kernel.vm.resident.physmem.total_frames)
        assert task.read(addr, 9) == b"roundtrip"
        assert kernel.stats.pageins >= 1

    def test_referenced_page_gets_second_chance(self, tiny_kernel):
        kernel = tiny_kernel
        task = kernel.task_create()
        addr = task.vm_allocate(PAGE)
        task.write(addr, b"hot")
        page = kernel.vm.resident.lookup(
            task.vm_map.lookup(addr, FaultType.READ).vm_object, 0)
        kernel.vm.resident.deactivate(page)
        page.referenced = True
        freed = kernel.pageout_daemon._try_reclaim(page)
        assert not freed
        assert kernel.pageout_daemon.reactivated == 1
        assert page.queue.value == "active"

    def test_wired_pages_never_reclaimed(self, tiny_kernel):
        kernel = tiny_kernel
        task = kernel.task_create()
        addr = task.vm_allocate(PAGE)
        kernel.wire_range(task, addr, PAGE)
        task.write(addr, b"wired")
        kernel.pageout_daemon.run(
            target=kernel.vm.resident.physmem.total_frames)
        assert task.read(addr, 5) == b"wired"
        assert kernel.stats.pageins == 0

    def test_transparent_under_sustained_pressure(self, tiny_kernel):
        """Working set 4x physical memory; every byte must survive."""
        kernel = tiny_kernel
        task = kernel.task_create()
        n = 120
        addr = task.vm_allocate(n * PAGE)
        for i in range(n):
            task.write(addr + i * PAGE, bytes([i % 250 + 1]) * 4)
        for i in range(n):
            expected = bytes([i % 250 + 1]) * 4
            assert task.read(addr + i * PAGE, 4) == expected
        kernel.vm.resident.check_consistency()

    def test_low_memory_hook_runs_inline(self, tiny_kernel):
        """Allocation pressure triggers the daemon synchronously —
        no allocation may ever fail outright while pages are
        reclaimable."""
        kernel = tiny_kernel
        task = kernel.task_create()
        addr = task.vm_allocate(100 * PAGE)
        for off in range(0, 100 * PAGE, PAGE):
            task.write(addr + off, b"p")
        assert kernel.pageout_daemon.runs > 0


class TestDeferredQuiesce:
    def test_reclaimed_frame_is_unreachable_from_every_tlb(self):
        """Under DEFERRED a remote CPU's flush waits for its timer tick;
        pageout must wait it out before the frame is freed, or the
        remote TLB can reach a frame that is about to be reused."""
        kernel = MachKernel(make_spec(ncpus=2),
                            shootdown=ShootdownStrategy.DEFERRED)
        task = kernel.task_create(name="remote")
        addr = task.vm_allocate(PAGE)
        kernel.set_current_cpu(1)
        task.write(addr, b"cached on cpu1")
        kernel.set_current_cpu(0)
        frame = task.pmap.extract(addr)

        def reaching(cpu) -> list[int]:
            return [paddr for _, _, paddr, _ in cpu.tlb.snapshot()
                    if frame <= paddr < frame + kernel.page_size]

        assert reaching(kernel.machine.cpus[1]), "cpu1 cached nothing"
        kernel.pageout_daemon.run(
            target=kernel.vm.resident.physmem.total_frames)
        assert task.pmap.extract(addr) is None, "the page was not reclaimed"
        for cpu in kernel.machine.cpus:
            assert reaching(cpu) == [], \
                f"cpu{cpu.cpu_id} still maps reclaimed frame {frame:#x}"


class TestSwapDataIntegrity:
    def test_many_pages_distinct_content(self, tiny_kernel):
        kernel = tiny_kernel
        task = kernel.task_create()
        n = 64
        addr = task.vm_allocate(n * PAGE)
        for i in range(n):
            task.write(addr + i * PAGE, f"page-{i:03d}".encode())
        for i in reversed(range(n)):
            assert task.read(addr + i * PAGE, 8) == \
                f"page-{i:03d}".encode()

    def test_rewrite_reuses_swap_slot(self, tiny_kernel):
        kernel = tiny_kernel
        task = kernel.task_create()
        addr = task.vm_allocate(PAGE)
        task.write(addr, b"v1")
        kernel.pageout_daemon.run(
            target=kernel.vm.resident.physmem.total_frames)
        slots_after_first = kernel.swap.slots_used
        task.write(addr, b"v2")
        kernel.pageout_daemon.run(
            target=kernel.vm.resident.physmem.total_frames)
        assert kernel.swap.slots_used == slots_after_first
        assert task.read(addr, 2) == b"v2"
