"""The pinned test-only oracles: the page-at-a-time fault resolver and
the v1 one-page pager shim it pages in through.

:func:`vm_fault_reference` is the *reference* implementation of the
fault path: a frozen copy of :func:`repro.core.fault.vm_fault` as it
stood before the fault fast lane (batched resolution, memoized
shadow-chain walks, int-keyed TLB slots) landed.  It is deliberately
unoptimized and deliberately duplicated — the differential-testing
harness in this package runs it lockstep against the fast path over
seeded random workloads on every registered pmap and asserts identical
page contents, pmap/TLB state, ``KernelStats`` deltas and semantic
event streams.  Sharing helpers with :mod:`repro.core.fault` would let
an optimization bug silently change both sides at once, which is
exactly what the harness exists to prevent.  It lives outside ``src/``
so the system under test never ships (or imports) its own oracle.

Keep this file in sync with the *semantics* of the fast path, never
with its implementation.  Route a kernel through it with::

    from tests.difftest.reference import vm_fault_reference
    kernel.fault_resolver = vm_fault_reference
"""

from __future__ import annotations

from typing import Optional

from repro.core.constants import FaultType, VMProt, trunc_page
from repro.core.errors import DiskIOError, MemoryObjectError
from repro.core.fault import FaultOutcome
from repro.core.page import VMPage
from repro.pager.protocol import UNAVAILABLE, DataResult, \
    capabilities_for, normalize_reply


def vm_fault_reference(kernel, task, vaddr: int, fault_type: FaultType,
                       wiring: bool = False) -> FaultOutcome:
    """Resolve a page fault for *task* at *vaddr* (reference semantics).

    Raises:
        InvalidAddressError: nothing mapped at *vaddr*.
        ProtectionFailureError: the mapping forbids the access.
    """
    vm = kernel.vm
    costs = vm.costs
    vm.clock.charge(costs.fault_trap_us + costs.fault_mi_us)
    kernel.stats.faults += 1
    with kernel.events.span("vm", "fault", task=task.name, vaddr=vaddr,
                            fault_type=fault_type.name) as span:
        outcome = _resolve_fault(kernel, task, vaddr, fault_type,
                                 wiring, span)
    return outcome


def _resolve_fault(kernel, task, vaddr: int, fault_type: FaultType,
                   wiring: bool, span) -> FaultOutcome:
    """The body of :func:`vm_fault_reference`, run inside its
    ``vm/fault`` span (*span* collects the outcome for the closing
    event)."""
    vm = kernel.vm
    page_addr = trunc_page(vaddr, vm.page_size)
    vm_map = task.vm_map
    with kernel.events.span("stage", "map_lookup"):
        result = vm_map.lookup(page_addr, fault_type)
    entry = result.leaf_entry
    outcome = FaultOutcome(page=None)  # type: ignore[arg-type]

    # (2) Materialize lazy zero-fill memory: "Memory with no pager is
    # automatically zero filled."
    if entry.vm_object is None:
        entry.vm_object = vm.objects.create_internal(entry.size)
        entry.offset = 0
        with kernel.events.span("stage", "map_lookup"):
            result = vm_map.lookup(page_addr, fault_type)
        entry = result.leaf_entry

    # (3) Shadow a needs-copy entry before letting a write through.
    # A pager that declared itself readonly (Table 3-2 pager_readonly:
    # "Forces the kernel to allocate a new memory object should a write
    # attempt to this paging object be made") makes every write behave
    # as needs-copy.
    writing = bool(fault_type & FaultType.WRITE)
    if (writing and not result.needs_copy and entry.vm_object is not None
            and getattr(entry.vm_object.pager, "readonly", False)):
        result.needs_copy = True
    if result.needs_copy and writing:
        assert not entry.is_sub_map, \
            "needs_copy is never set on sharing-map references"
        old_object = entry.vm_object
        shadow = vm.objects.shadow(old_object, entry.offset, entry.size)
        entry.vm_object = shadow
        entry.offset = 0
        entry.needs_copy = False
        outcome.shadow_created = True
        if result.leaf_map.is_sharing_map:
            # Shadowing a sharing-map leaf changes what *every* sharer
            # maps: their existing hardware translations point directly
            # at the old object's pages and would bypass the shadow for
            # pages modified from now on.  Flush them all; each sharer
            # refaults through the new chain.
            lo = shadow.shadow_offset
            hi = lo + entry.size
            for page in old_object.iter_resident():
                if lo <= page.offset < hi:
                    vm.pmap_system.remove_all(page.phys_addr)
        with kernel.events.span("stage", "map_lookup"):
            result = vm_map.lookup(page_addr, fault_type)
        entry = result.leaf_entry

    first_object = entry.vm_object
    first_offset = result.offset

    # (4) Walk the shadow chain for the data.  A failed backing store
    # (dead pager, bad disk) surfaces here as a *typed* error to the
    # faulting task — never a hang, never silently wrong data (the
    # paper's Section 4 concern about errant user-state managers).
    try:
        with kernel.events.span("stage", "shadow_walk"):
            page, level = _find_page(kernel, first_object,
                                     first_offset, outcome)
    except (MemoryObjectError, DiskIOError):
        kernel.stats.fault_errors += 1
        raise

    # (4a) Honour pager data locks (Table 3-2 pager_data_lock:
    # "Prevents further access to the specified data until an unlock").
    required = VMProt(int(fault_type))
    if page.page_lock & required:
        new_lock = kernel.pager_unlock_request(page.vm_object,
                                               page.offset, required)
        page.page_lock = new_lock
        if page.page_lock & required:
            from repro.core.errors import ProtectionFailureError
            raise ProtectionFailureError(
                f"pager holds {page.page_lock!r} lock at "
                f"{vaddr:#x}")

    # (5) Copy-on-write copy when a write found its data in a backing
    # object.
    if page.vm_object is not first_object and writing:
        with kernel.events.span("stage", "copy_up"):
            page = _copy_up(kernel, page, first_object, first_offset)
        outcome.cow_copied = True
        kernel.stats.cow_faults += 1
        kernel.events.emit("vm", "cow",
                           object_id=first_object.object_id,
                           offset=first_offset, level=level)
        vm.objects.collapse(first_object)

    # (6) Decide the hardware protection and enter the mapping.
    prot = result.protection
    if page.vm_object is not first_object:
        # Reading through to a backing object: never writable.
        prot &= ~VMProt.WRITE
    elif result.needs_copy and not writing:
        # A read fault on a needs-copy entry maps the shared data
        # read-only; the eventual write refaults and shadows.
        prot &= ~VMProt.WRITE
    if page.page_lock:
        # Still-locked access kinds stay out of the hardware mapping so
        # the next such access faults back to the pager.
        prot &= ~page.page_lock

    pmap = vm_map.pmap
    if pmap is not None:
        pmap.enter(page_addr, page.phys_addr, prot,
                   wired=wiring or result.wired)

    page.referenced = True
    if writing:
        page.modified = True
    if wiring or result.wired:
        vm.resident.wire(page)
    else:
        vm.resident.activate(page)
    page.busy = False

    outcome.page = page
    outcome.entered_prot = prot
    span.note(zero_filled=outcome.zero_filled,
              paged_in=outcome.paged_in,
              shadow_created=outcome.shadow_created,
              cow_copied=outcome.cow_copied,
              depth=level)
    return outcome


def _find_page(kernel, first_object, first_offset: int,
               outcome: FaultOutcome):
    """Walk the shadow chain from (first_object, first_offset); returns
    (page, depth).  The page may live in a backing object.

    The reference walk re-reads each ``obj.shadow`` pointer live (no
    memoization) — this is the behaviour the memoized fast-path walk is
    proven equal to.
    """
    vm = kernel.vm
    obj = first_object
    offset = first_offset
    level = 0
    while True:
        page = vm.resident.lookup(obj, offset)
        if page is not None:
            assert not page.busy, "single-threaded fault hit a busy page"
            if not page.absent:
                return page, level
            # An absent marker: the pager has no data here; treat as a
            # hole and keep looking down the chain.
            vm.resident.free(page)

        if obj.pager is not None and kernel.pager_has_data(obj, offset):
            page = request_object_data_v1(kernel, obj, offset)
            if page is not None:
                outcome.paged_in = True
                kernel.stats.pageins += 1
                kernel.events.emit("vm", "pagein",
                                   object_id=obj.object_id,
                                   offset=offset, level=level)
                return page, level

        if obj.shadow is not None:
            # "it relies on the original object that it shadows for all
            # unmodified data."
            offset += obj.shadow_offset
            obj = obj.shadow
            level += 1
            continue

        # (4b) Bottom of the chain: zero fill, in the *first* object so
        # the page is immediately private to it.
        page = vm.resident.allocate(first_object, first_offset, busy=True)
        try:
            with kernel.events.span("stage", "zero_fill"):
                vm.pmap_system.zero_page(page.phys_addr)
            outcome.zero_filled = True
            kernel.stats.zero_fill_count += 1
            kernel.events.emit("vm", "zero_fill",
                               object_id=first_object.object_id,
                               offset=first_offset)
        except Exception:
            # Never strand a busy page off every queue (even for an
            # errant event subscriber): the frame would be
            # unreclaimable for the rest of the run.
            vm.resident.free(page)
            raise
        return page, 0


def _copy_up(kernel, source: VMPage, first_object, first_offset: int):
    """Copy *source* (found in a backing object) into *first_object* —
    "a new page accessible only to the writing task must be allocated
    into which the modifications are placed" (Section 3.4)."""
    vm = kernel.vm
    # The source page keeps serving other readers; make sure it is on a
    # queue appropriate to recent use (done first so a failed copy
    # below leaves the source properly queued).
    vm.resident.activate(source)
    new_page = vm.resident.allocate(first_object, first_offset, busy=True)
    try:
        vm.pmap_system.copy_page(source.phys_addr, new_page.phys_addr)
    except Exception:
        # A failed copy must not strand the busy destination page.
        vm.resident.free(new_page)
        raise
    new_page.modified = True
    return new_page


# ----------------------------------------------------------------------
# The v1 pager calling convention (what the reference pages in through)
# ----------------------------------------------------------------------

def request_object_data_v1(kernel, obj, offset: int) -> Optional[VMPage]:
    """The pre-v2 one-page calling convention, kept as a thin shim
    (via :func:`one_page_request`) for the pinned reference resolver:
    one blob per request, no readahead, no scatter-gather — exactly the
    protocol the reference was frozen against.  It runs inside
    *kernel*'s own pager funnel, so retry/backoff/dead-pager policy is
    the kernel's.
    """
    if obj.pager_dead:
        return kernel._dead_pager_data(obj, offset)
    page_size = kernel.page_size
    cluster = max(capabilities_for(obj.pager).transfer_size
                  or page_size, page_size)
    base = offset - offset % cluster
    obj.paging_in_progress += 1
    try:
        data = kernel._call_pager(
            obj, "data_request",
            lambda: one_page_request(obj.pager, obj, base, cluster,
                                     VMProt.READ, page_size))
    finally:
        obj.paging_in_progress -= 1
    if data is UNAVAILABLE or data is None:
        return None
    data = bytes(data)
    if len(data) < cluster:
        data += bytes(cluster - len(data))
    result = None
    for off in range(base, base + cluster, page_size):
        if off != offset and (off >= obj.size
                              or kernel.vm.resident.lookup(obj, off)
                              is not None):
            continue
        page = kernel._install_provided_page(
            obj, off, data[off - base:off - base + page_size],
            page_size)
        if off == offset:
            result = page
        else:
            kernel.vm.resident.activate(page)
    return result


def one_page_request(pager, obj, offset: int, length: int,
                     desired_access, page_size: int = 0) -> DataResult:
    """The v1 calling convention as a thin shim over v2.

    Issues a plain windowed ``data_request`` (no readahead hint) and
    flattens the reply back into the old single-``DataResult`` shape:
    *length* bytes at *offset* (zero-padded), or :data:`UNAVAILABLE`.
    The pinned reference resolver pages in exclusively through this
    shim, so its faults see exactly the pre-v2 protocol.
    """
    #: no-retry — callers run this shim inside the kernel's
    #: _call_pager funnel, which owns retry/backoff/dead-pager policy.
    reply = pager.data_request(obj, offset, length, desired_access)
    pages = normalize_reply(reply, offset, length,
                            page_size or length)
    if not pages:
        return UNAVAILABLE
    step = page_size or length
    out = bytearray(length)
    provided = False
    for base in range(offset, offset + length, step):
        chunk = pages.get(base)
        if chunk is None or chunk is UNAVAILABLE:
            continue
        provided = True
        out[base - offset:base - offset + len(chunk)] = chunk
    return bytes(out) if provided else UNAVAILABLE
