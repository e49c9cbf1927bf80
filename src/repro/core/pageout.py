"""The paging daemon.

Section 3.1: "Allocation queues are maintained for free, reclaimable and
allocated pages and are used by the Mach paging daemon."  Section 5.2
(case 2) describes the TLB protocol this daemon follows before stealing
a page: "The system first removes the mapping from any primary memory
mapping data structures and then initiates pageout only after all
referencing TLBs have been flushed."

The daemon keeps ``free_count`` above ``free_target`` by scanning the
inactive queue with second-chance semantics: referenced pages are
reactivated; clean pages are freed; dirty pages are written to the
object's pager (binding the default pager to anonymous objects that have
never been paged before) and then freed.  In the single-threaded
simulation the kernel runs the daemon synchronously whenever frame
allocation finds memory short.
"""

from __future__ import annotations

from repro.core.errors import DiskIOError, PagerError
from repro.core.page import VMPage
from repro.ipc.port import DeadPortError
from repro.pmap.interface import ShootdownStrategy


class PageoutDaemon:
    """Free-memory keeper for one kernel."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.runs = 0
        self.pages_freed = 0
        self.pages_laundered = 0
        self.reactivated = 0
        self.launder_failures = 0

    # ------------------------------------------------------------------

    def run(self, target: int | None = None) -> int:
        """Reclaim until ``free_count`` >= *target* (default: the
        resident table's ``free_target``); returns pages freed."""
        vm = self.kernel.vm
        resident = vm.resident
        if target is None:
            target = resident.free_target
        target = min(target, resident.physmem.total_frames)
        self.runs += 1
        freed = 0
        events = self.kernel.events
        events.push_track("daemon")
        try:
            with events.span("pageout", "run", target=target) as span:
                # Guard against scanning forever when everything is
                # wired or every page keeps getting re-referenced.
                budget = 4 * resident.physmem.total_frames
                while resident.free_count < target and budget > 0:
                    budget -= 1
                    self._balance_queues()
                    page = resident.oldest_inactive()
                    if page is None:
                        break
                    if self._try_reclaim(page):
                        freed += 1
                span.note(freed=freed)
        finally:
            events.pop_track()
        self.pages_freed += freed
        hook = self.kernel.sanitize_hook
        if hook is not None and not resident._reclaiming:
            # Skip the sweep when running synchronously inside a frame
            # allocation (mid-fault): the caller's fault-path hook
            # audits once the fault completes.
            hook(self.kernel)
        return freed

    def _balance_queues(self) -> None:
        """Keep the inactive queue populated by deactivating the oldest
        active pages (roughly one third of pageable memory inactive, as
        in the BSD-derived daemons)."""
        resident = self.kernel.vm.resident
        want_inactive = max(
            1, (resident.active_count + resident.inactive_count) // 3)
        while resident.inactive_count < want_inactive:
            page = resident.oldest_active()
            if page is None:
                return
            # Clear hardware reference state so the inactive scan can
            # detect re-use.
            self.kernel.vm.pmap_system.clear_reference(page.phys_addr)
            page.referenced = False
            resident.deactivate(page)

    def _referenced(self, page: VMPage) -> bool:
        return (page.referenced
                or self.kernel.vm.pmap_system.is_referenced(page.phys_addr))

    def _modified(self, page: VMPage) -> bool:
        return (page.modified
                or self.kernel.vm.pmap_system.is_modified(page.phys_addr))

    def _try_reclaim(self, page: VMPage) -> bool:
        """Evict one inactive page; returns True when it was freed."""
        vm = self.kernel.vm
        resident = vm.resident
        if self._referenced(page):
            # Second chance.
            vm.pmap_system.clear_reference(page.phys_addr)
            page.referenced = False
            resident.activate(page)
            self.reactivated += 1
            self.kernel.stats.reactivations += 1
            self.kernel.events.emit(
                "pageout", "reactivate",
                object_id=page.vm_object.object_id, offset=page.offset)
            return False

        dirty = self._modified(page)

        # Remove every hardware mapping, then make sure no TLB can still
        # reach the frame before its contents move or the frame is
        # reused (Section 5.2, case 2).
        vm.pmap_system.remove_all(page.phys_addr)
        self._quiesce_tlbs()

        if dirty and not self._launder(page):
            # The pageout failed: the only good copy of the data is
            # this frame.  Keep the page — dirty at the MI level, since
            # remove_all dropped the hardware modify state — and put it
            # back on the active queue so the daemon moves on to other
            # victims instead of grinding on a broken pager.
            page.modified = True
            resident.activate(page)
            return False

        resident.free(page)
        return True

    def _quiesce_tlbs(self) -> None:
        """Wait out the shootdown protocol in force."""
        vm = self.kernel.vm
        strategy = vm.pmap_system.strategy
        if strategy is ShootdownStrategy.DEFERRED:
            # "postpone use of a changed mapping until all CPUs have
            # taken a timer interrupt".
            vm.machine.tick_all_timers()
        elif strategy is ShootdownStrategy.LAZY:
            # Temporary inconsistency is never acceptable for pageout:
            # flush everything, paying the full price.
            for cpu in vm.machine.cpus:
                vm.clock.charge(vm.costs.tlb_flush_all_us)
                cpu.tlb.flush_all()
        # IMMEDIATE: remove_all already interrupted every tainted CPU.

    def _launder(self, page: VMPage) -> bool:
        """Write a dirty page to its object's pager; returns True when
        the backing store accepted the data.

        Anonymous memory that has never been paged gets the default
        pager bound on first pageout — "page-out is done to a default
        inode pager" (Section 3.3), so no separate paging partition is
        needed.

        A pager/disk failure (see the failure contract in
        :mod:`repro.pager.protocol`) is absorbed here: the page stays
        dirty so its data survives in memory, and the caller must not
        free the frame.  ``ResourceShortageError`` (swap exhaustion) is
        *not* absorbed — that one must propagate.
        """
        vm = self.kernel.vm
        obj = page.vm_object
        if obj.pager is None:
            vm.objects.set_pager(obj, self.kernel.default_pager)
        with self.kernel.events.span(
                "pageout", "launder",
                object_id=obj.object_id, offset=page.offset) as span:
            data = vm.machine.physmem.read(page.phys_addr, vm.page_size)
            obj.paging_in_progress += 1
            try:
                self.kernel.pager_write_data(obj, page.offset, data)
            except (PagerError, DiskIOError, DeadPortError) as exc:
                self.launder_failures += 1
                self.kernel.stats.pageout_failures += 1
                span.note(error=type(exc).__name__)
                return False
            finally:
                obj.paging_in_progress -= 1
            page.modified = False
            vm.pmap_system.clear_modify(page.phys_addr)
            self.pages_laundered += 1
            self.kernel.stats.pageouts += 1
            self.kernel.events.emit(
                "pageout", "laundered",
                object_id=obj.object_id, offset=page.offset)
        return True
