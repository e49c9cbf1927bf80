"""Unit tests for the page-fault handler (zero fill, COW, shadows,
pager fills, protection)."""

import pytest

from repro.core.constants import FaultType, VMProt
from repro.core.errors import (
    InvalidAddressError,
    ProtectionFailureError,
)

PAGE = 4096


class TestZeroFill:
    def test_first_touch_zero_fills(self, kernel, task):
        addr = task.vm_allocate(4 * PAGE)
        outcome = kernel.fault(task, addr, FaultType.READ)
        assert outcome.zero_filled
        assert kernel.machine.physmem.read(outcome.page.phys_addr,
                                           8) == bytes(8)

    def test_lazy_object_materialized_at_fault(self, kernel, task):
        addr = task.vm_allocate(PAGE)
        found, entry = task.vm_map.lookup_entry(addr)
        assert entry.vm_object is None           # nothing until fault
        kernel.fault(task, addr, FaultType.WRITE)
        assert entry.vm_object is not None

    def test_second_fault_reuses_page(self, kernel, task):
        addr = task.vm_allocate(PAGE)
        first = kernel.fault(task, addr, FaultType.WRITE)
        second = kernel.fault(task, addr, FaultType.READ)
        assert second.page is first.page
        assert not second.zero_filled

    def test_fault_on_unmapped_address(self, kernel, task):
        with pytest.raises(InvalidAddressError):
            kernel.fault(task, 0x500000, FaultType.READ)

    def test_fault_beyond_protection(self, kernel, task):
        addr = task.vm_allocate(PAGE)
        task.vm_protect(addr, PAGE, False, VMProt.READ)
        with pytest.raises(ProtectionFailureError):
            kernel.fault(task, addr, FaultType.WRITE)

    def test_fault_installs_pmap_mapping(self, kernel, task):
        addr = task.vm_allocate(PAGE)
        outcome = kernel.fault(task, addr, FaultType.WRITE)
        assert task.pmap.extract(addr) == outcome.page.phys_addr

    def test_fault_counts(self, kernel, task):
        addr = task.vm_allocate(2 * PAGE)
        kernel.fault(task, addr, FaultType.WRITE)
        kernel.fault(task, addr + PAGE, FaultType.WRITE)
        assert kernel.stats.faults == 2
        assert kernel.stats.zero_fill_count == 2


class TestCopyOnWrite:
    def _cow_pair(self, kernel, task):
        addr = task.vm_allocate(2 * PAGE)
        task.write(addr, b"original")
        dst = task.vm_map.copy_region(addr, 2 * PAGE, task.vm_map)
        return addr, dst

    def test_read_shares_page(self, kernel, task):
        addr, dst = self._cow_pair(kernel, task)
        src_out = kernel.fault(task, addr, FaultType.READ)
        dst_out = kernel.fault(task, dst, FaultType.READ)
        assert src_out.page is dst_out.page

    def test_read_maps_without_write_permission(self, kernel, task):
        addr, dst = self._cow_pair(kernel, task)
        out = kernel.fault(task, dst, FaultType.READ)
        assert not out.entered_prot.allows(VMProt.WRITE)

    def test_write_creates_shadow_and_copies(self, kernel, task):
        addr, dst = self._cow_pair(kernel, task)
        out = kernel.fault(task, dst, FaultType.WRITE)
        assert out.shadow_created
        assert out.cow_copied
        assert kernel.stats.cow_faults == 1

    def test_write_isolates_data(self, kernel, task):
        addr, dst = self._cow_pair(kernel, task)
        task.write(dst, b"modified")
        assert task.read(addr, 8) == b"original"
        assert task.read(dst, 8) == b"modified"

    def test_symmetric_cow_source_write_also_shadows(self, kernel,
                                                     task):
        addr, dst = self._cow_pair(kernel, task)
        task.write(addr, b"src-side")        # writer pays, either side
        assert task.read(dst, 8) == b"original"
        assert task.read(addr, 8) == b"src-side"

    def test_untouched_cow_page_not_copied(self, kernel, task):
        addr, dst = self._cow_pair(kernel, task)
        task.write(dst, b"modified")         # page 0 only
        before = kernel.stats.cow_faults
        assert task.read(dst + PAGE, 1) == task.read(addr + PAGE, 1)
        assert kernel.stats.cow_faults == before

    def test_needs_copy_cleared_after_shadow(self, kernel, task):
        addr, dst = self._cow_pair(kernel, task)
        kernel.fault(task, dst, FaultType.WRITE)
        found, entry = task.vm_map.lookup_entry(dst)
        assert not entry.needs_copy
        # A second write to another page of the same entry reuses the
        # shadow instead of creating a new one.
        before = kernel.vm.objects.shadows_created
        kernel.fault(task, dst + PAGE, FaultType.WRITE)
        assert kernel.vm.objects.shadows_created == before


class TestErrantSubscriber:
    """An event subscriber that raises mid-fault fails that fault, but
    never strands its busy page off every queue: the same write retried
    succeeds, and every frame is still free, queued or wired."""

    @staticmethod
    def _raise_on(kernel, kind):
        def subscriber(event):
            if (event.subsystem, event.kind) == ("vm", kind):
                raise RuntimeError(f"subscriber failed on vm/{kind}")
        return kernel.events.subscribe(subscriber)

    @staticmethod
    def _frames(kernel):
        resident = kernel.vm.resident
        resident.check_consistency()
        assert resident.free_count + resident.resident_count == \
            kernel.machine.physmem.total_frames
        assert resident.resident_count == resident.active_count + \
            resident.inactive_count + resident.wired_count
        return resident.resident_count

    def _fail_then_retry(self, kernel, task, addr, kind):
        before = self._frames(kernel)
        subscriber = self._raise_on(kernel, kind)
        with pytest.raises(RuntimeError, match=f"vm/{kind}"):
            kernel.fault(task, addr, FaultType.WRITE)
        kernel.events.unsubscribe(subscriber)
        assert self._frames(kernel) == before
        outcome = kernel.fault(task, addr, FaultType.WRITE)
        assert self._frames(kernel) == before + 1
        return outcome

    def test_zero_fill_subscriber_error(self, kernel, task):
        addr = task.vm_allocate(PAGE)
        outcome = self._fail_then_retry(kernel, task, addr, "zero_fill")
        assert outcome.zero_filled
        task.write(addr, b"retried")
        assert task.read(addr, 7) == b"retried"

    def test_cow_subscriber_error(self, kernel, task):
        addr = task.vm_allocate(PAGE)
        task.write(addr, b"original")
        dst = task.vm_map.copy_region(addr, PAGE, task.vm_map)
        outcome = self._fail_then_retry(kernel, task, dst, "cow")
        assert outcome.cow_copied
        task.write(dst, b"modified")
        assert task.read(addr, 8) == b"original"
        assert task.read(dst, 8) == b"modified"


class TestShadowChainFaults:
    def test_read_through_two_levels(self, kernel, task):
        addr = task.vm_allocate(PAGE)
        task.write(addr, b"level0")
        c1 = task.vm_map.copy_region(addr, PAGE, task.vm_map)
        task.write(addr, b"level1")          # shadows the original
        c2 = task.vm_map.copy_region(addr, PAGE, task.vm_map)
        assert task.read(c1, 6) == b"level0"
        assert task.read(c2, 6) == b"level1"
        assert task.read(addr, 6) == b"level1"

    def test_chain_collapse_after_writes(self, kernel, task):
        addr = task.vm_allocate(PAGE)
        for generation in range(12):
            task.write(addr, f"gen{generation:04d}".encode())
            copy = task.vm_map.copy_region(addr, PAGE, task.vm_map)
            task.vm_map.delete_range(copy, PAGE)
        found, entry = task.vm_map.lookup_entry(addr)
        assert entry.vm_object.chain_length() <= 3


class TestPagerBackedFaults:
    def test_fault_fills_from_pager(self, kernel, task):
        class ConstantPager:
            def data_request(self, obj, offset, length, access):
                return bytes([0x42]) * length

            def data_write(self, obj, offset, data):
                pass

        addr = kernel.vm_allocate_with_pager(task, 2 * PAGE,
                                             ConstantPager())
        out = kernel.fault(task, addr, FaultType.READ)
        assert out.paged_in
        assert task.read(addr, 4) == b"\x42\x42\x42\x42"

    def test_unavailable_data_zero_fills(self, kernel, task):
        from repro.pager.protocol import UNAVAILABLE

        class EmptyPager:
            def data_request(self, obj, offset, length, access):
                return UNAVAILABLE

            def data_write(self, obj, offset, data):
                pass

        addr = kernel.vm_allocate_with_pager(task, PAGE, EmptyPager())
        out = kernel.fault(task, addr, FaultType.READ)
        assert out.zero_filled

    def test_readonly_pager_forces_new_object(self, kernel, task):
        """Table 3-2 pager_readonly semantics."""
        class RoPager:
            readonly = True

            def data_request(self, obj, offset, length, access):
                return b"\x11" * length

            def data_write(self, obj, offset, data):
                raise AssertionError("readonly pager must not be "
                                     "written")

        pager = RoPager()
        addr = kernel.vm_allocate_with_pager(task, PAGE, pager)
        obj_before = task.vm_map.lookup(addr, FaultType.READ).vm_object
        task.write(addr, b"\x22")
        obj_after = task.vm_map.lookup(addr, FaultType.READ).vm_object
        assert obj_after is not obj_before
        assert obj_after.shadow is obj_before
        assert task.read(addr, 2) == b"\x22\x11"


class TestWiredFaults:
    def test_wire_range_pins_pages(self, kernel, task):
        addr = task.vm_allocate(2 * PAGE)
        kernel.wire_range(task, addr, 2 * PAGE)
        stats = kernel.vm_statistics()
        assert stats.wire_count == 2

    def test_wired_page_survives_pageout_pressure(self, tiny_kernel):
        kernel = tiny_kernel
        task = kernel.task_create()
        wired_addr = task.vm_allocate(PAGE)
        kernel.wire_range(task, wired_addr, PAGE)
        task.write(wired_addr, b"pinned")
        big = task.vm_allocate(60 * PAGE)
        for off in range(0, 60 * PAGE, PAGE):
            task.write(big + off, b"x")
        # The wired page never left memory: reading it needs no pagein.
        before = kernel.stats.pageins
        assert task.read(wired_addr, 6) == b"pinned"
        assert kernel.stats.pageins == before
