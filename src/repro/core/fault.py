"""The page fault handler (the fault fast lane).

This is the rendezvous point of the whole design: "all virtual memory
information can be reconstructed at fault time from Mach's machine
independent data structures" (Section 3.6).  A fault resolves by

1. looking the address up in the task's address map (descending a
   sharing map when present),
2. materializing a lazily allocated zero-fill object if none exists,
3. creating a shadow object when a write hits a ``needs_copy`` entry,
4. walking the shadow chain for a resident page, asking each object's
   pager for data along the way, zero-filling at the bottom,
5. copying a backing page up into the first object on write (the actual
   copy-on-write copy), then attempting shadow-chain collapse,
6. entering the translation in the machine-dependent pmap — with write
   permission withheld when the page is still logically shared.

Steps (4)-(6) live in one per-page resolver, :func:`_fault_page`,
which both entry points call:

* :func:`vm_fault` — one page at a time, as the MMU delivers them:
  lookup, entry preparation, :func:`_fault_page`, one
  :meth:`~repro.pmap.interface.Pmap.enter`.  The hot path uses integer
  protection masks, the memoized shadow-chain walk
  (:meth:`repro.core.vm_object.VMObject.shadow_chain`) and builds event
  payloads only when someone listens on the bus.
* :func:`vm_fault_batch` — a *run* of consecutive pending faults
  against the same map entry: one map lookup and entry preparation,
  :func:`_fault_page` per page, and one
  :meth:`~repro.pmap.interface.Pmap.enter_batch` (and therefore at
  most one TLB shootdown) per object-run, instead of one of each per
  page.

The differential harness under ``tests/difftest/`` runs both entry
points lockstep against a pinned page-at-a-time reference resolver
(``tests/difftest/reference.py``) on every registered pmap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constants import FaultType, VMProt
from repro.core.errors import DiskIOError, MemoryObjectError
from repro.core.page import VMPage

#: Small-int protection cache: VMProt(i) without the IntFlag
#: constructor on every fault (enum construction dominated the old
#: fault-path profile).
_PROT = tuple(VMProt(value) for value in range(8))
_WRITE_BIT = int(VMProt.WRITE)


@dataclass
class FaultOutcome:
    """What a resolved fault did (for statistics and tests)."""

    page: VMPage
    zero_filled: bool = False
    paged_in: bool = False
    cow_copied: bool = False
    shadow_created: bool = False
    entered_prot: VMProt = VMProt.NONE


def vm_fault(kernel, task, vaddr: int, fault_type: FaultType,
             wiring: bool = False) -> FaultOutcome:
    """Resolve a page fault for *task* at *vaddr*.

    Raises:
        InvalidAddressError: nothing mapped at *vaddr*.
        ProtectionFailureError: the mapping forbids the access.
    """
    vm = kernel.vm
    costs = vm.costs
    vm.clock.charge(costs.fault_trap_us + costs.fault_mi_us)
    kernel.stats.faults += 1
    events = kernel.events
    if events.active:
        with events.span("vm", "fault", task=task.name, vaddr=vaddr,
                         fault_type=fault_type.name) as span:
            return _resolve_fault(kernel, task, vaddr, fault_type,
                                  wiring, span)
    return _resolve_fault(kernel, task, vaddr, fault_type, wiring, None)


def _resolve_fault(kernel, task, vaddr: int, fault_type: FaultType,
                   wiring: bool, span) -> FaultOutcome:
    """The body of :func:`vm_fault`, run inside its ``vm/fault`` span
    when someone listens on the bus (*span* is ``None`` otherwise)."""
    page_addr = vaddr & -kernel.vm.page_size
    vm_map = task.vm_map
    with kernel.events.stage("map_lookup"):
        result = vm_map.lookup(page_addr, fault_type)
    writing = bool(int(fault_type) & _WRITE_BIT)
    outcome = FaultOutcome(page=None)  # type: ignore[arg-type]
    result = _prepare_entry(kernel, vm_map, result, page_addr,
                            fault_type, writing, outcome)
    prot_bits, page, wired = _fault_page(
        kernel, result, page_addr, page_addr, vaddr, fault_type, writing,
        wiring, outcome, span)
    pmap = vm_map.pmap
    if pmap is not None:
        pmap.enter(page_addr, page.phys_addr, _PROT[prot_bits & 7],
                   wired=wired)
    page.busy = False
    return outcome


def _fault_page(kernel, result, run_base: int, page_addr: int,
                vaddr: int, fault_type: FaultType, writing: bool,
                wiring: bool, outcome: FaultOutcome, span):
    """Steps (4)-(6) for one page against a prepared lookup *result*
    whose offset maps *run_base*: find the page, honour locks and copy
    up, then mark it referenced (and modified) and wire or activate it
    — everything but the pmap enter and the busy-clear, which the
    caller owes.  Returns ``(prot_bits, page, wired)``; *page* is also
    ``outcome.page`` (the copy-up page when a COW copy happened)."""
    first_object = result.leaf_entry.vm_object
    first_offset = result.offset + (page_addr - run_base)

    # (4) Walk the shadow chain for the data.  A failed backing store
    # (dead pager, bad disk) surfaces here as a *typed* error to the
    # faulting task — never a hang, never silently wrong data (the
    # paper's Section 4 concern about errant user-state managers).
    try:
        # Pager calls and the zero fill open their own stage spans
        # inside the walk, so its *self* time is the chain descent.
        with kernel.events.stage("shadow_walk"):
            page, level = _find_page(kernel, first_object, first_offset,
                                     outcome)
    except (MemoryObjectError, DiskIOError):
        kernel.stats.fault_errors += 1
        raise
    prot_bits = _finish_page(kernel, result, page, level, first_object,
                             first_offset, vaddr, fault_type, writing,
                             outcome)
    page = outcome.page

    # Queue/state updates happen at resolution time, in fault order (a
    # COW copy-up activates the source page mid-resolution; the copy
    # must follow it immediately).
    wired = wiring or result.wired
    page.referenced = True
    if writing:
        page.modified = True
    if wired:
        kernel.vm.resident.wire(page)
    else:
        kernel.vm.resident.activate(page)
    outcome.entered_prot = _PROT[prot_bits & 7]
    if span is not None:
        span.note(zero_filled=outcome.zero_filled,
                  paged_in=outcome.paged_in,
                  shadow_created=outcome.shadow_created,
                  cow_copied=outcome.cow_copied,
                  depth=level)
    return prot_bits, page, wired


def _prepare_entry(kernel, vm_map, result, page_addr: int,
                   fault_type: FaultType, writing: bool,
                   outcome: FaultOutcome):
    """Steps (2)-(3): materialize a lazy zero-fill object and shadow a
    needs-copy entry before letting a write through.  Returns the
    (possibly re-resolved) lookup result.  Idempotent for the pages of
    one entry run: after the first page has materialized/shadowed, the
    remaining pages fall through both branches untouched — which is why
    the batch lane can run it once per run."""
    vm = kernel.vm
    entry = result.leaf_entry

    # (2) Materialize lazy zero-fill memory: "Memory with no pager is
    # automatically zero filled."
    if entry.vm_object is None:
        entry.vm_object = vm.objects.create_internal(entry.size)
        entry.offset = 0
        with kernel.events.stage("map_lookup"):
            result = vm_map.lookup(page_addr, fault_type)
        entry = result.leaf_entry

    # (3) Shadow a needs-copy entry before letting a write through.
    # A pager that declared itself readonly (Table 3-2 pager_readonly:
    # "Forces the kernel to allocate a new memory object should a write
    # attempt to this paging object be made") makes every write behave
    # as needs-copy.
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
        with kernel.events.stage("map_lookup"):
            result = vm_map.lookup(page_addr, fault_type)
    return result


def _finish_page(kernel, result, page, level: int, first_object,
                 first_offset: int, vaddr: int, fault_type: FaultType,
                 writing: bool, outcome: FaultOutcome) -> int:
    """Steps (4a)-(6) minus the pmap enter: pager data locks, the
    copy-on-write copy-up, and the hardware-protection decision.
    Returns the protection bits to enter; the page to enter (which may
    be the copy-up page, not *page*) comes back via ``outcome.page``."""
    vm = kernel.vm

    # (4a) Honour pager data locks (Table 3-2 pager_data_lock:
    # "Prevents further access to the specified data until an unlock").
    if page.page_lock:
        required = _PROT[int(fault_type) & 7]
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
        with kernel.events.stage("copy_up"):
            page = _copy_up(kernel, page, first_object, first_offset)
        outcome.cow_copied = True
        kernel.stats.cow_faults += 1
        try:
            kernel.events.emit("vm", "cow",
                               object_id=first_object.object_id,
                               offset=first_offset, level=level)
            vm.objects.collapse(first_object)
        except Exception:
            # As at the zero fill: never strand the busy copy.
            vm.resident.free(page)
            raise

    # (6) Decide the hardware protection.
    prot_bits = int(result.protection)
    if page.vm_object is not first_object:
        # Reading through to a backing object: never writable.
        prot_bits &= ~_WRITE_BIT
    elif result.needs_copy and not writing:
        # A read fault on a needs-copy entry maps the shared data
        # read-only; the eventual write refaults and shadows.
        prot_bits &= ~_WRITE_BIT
    if page.page_lock:
        # Still-locked access kinds stay out of the hardware mapping so
        # the next such access faults back to the pager.
        prot_bits &= ~int(page.page_lock)
    outcome.page = page
    return prot_bits


def _find_page(kernel, first_object, first_offset: int,
               outcome: FaultOutcome):
    """Walk the shadow chain from (first_object, first_offset); returns
    (page, depth).  The page may live in a backing object.

    The chain structure comes from the object's memoized
    :meth:`~repro.core.vm_object.VMObject.shadow_chain` (invalidated by
    the object manager's epoch on shadow/collapse/bypass/terminate), so
    repeated faults — and every page of a batch run — pay the pointer
    chase once.  The snapshot stays valid for the whole walk: nothing
    on this path mutates chain structure before the walk returns.
    """
    vm = kernel.vm
    resident = vm.resident
    level = 0
    for obj, delta in first_object.shadow_chain(vm.objects):
        offset = first_offset + delta
        page = resident.lookup(obj, offset)
        if page is not None:
            assert not page.busy, "single-threaded fault hit a busy page"
            if not page.absent:
                return page, level
            # An absent marker: the pager has no data here; treat as a
            # hole and keep looking down the chain.
            resident.free(page)

        if obj.pager is not None and kernel.pager_has_data(obj, offset):
            page = kernel.request_object_data(obj, offset)
            if page is not None:
                outcome.paged_in = True
                kernel.stats.pageins += 1
                kernel.events.emit("vm", "pagein",
                                   object_id=obj.object_id,
                                   offset=offset, level=level)
                return page, level

        # "it relies on the original object that it shadows for all
        # unmodified data."
        level += 1

    # (4b) Bottom of the chain: zero fill, in the *first* object so
    # the page is immediately private to it.
    page = vm.resident.allocate(first_object, first_offset, busy=True)
    try:
        with kernel.events.stage("zero_fill"):
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


# ======================================================================
# The batch lane
# ======================================================================


def vm_fault_batch(kernel, task, vaddr: int, npages: int,
                   fault_type: FaultType,
                   wiring: bool = False) -> list[FaultOutcome]:
    """Resolve *npages* consecutive page faults starting at the page
    containing *vaddr*, batching runs against the same map entry.

    Semantically equal to ``npages`` sequential :func:`vm_fault` calls
    (same statistics, same simulated cost per fault, same semantic
    events), but each object-run costs one map lookup, one shadow-chain
    memo and one :meth:`~repro.pmap.interface.Pmap.enter_batch` — so at
    most one TLB shootdown — instead of one of each per page.

    Batching rules (also documented in ARCHITECTURE.md):

    * a run breaks at map-entry boundaries (and re-resolves the map);
    * per-page queue and page-state updates happen at resolution time
      in scalar order; only the hardware enter (and the busy-clear)
      is deferred to the batched flush;
    * pending mappings are flushed to the pmap before any page whose
      resolution could trigger synchronous reclamation (free memory
      within two frames of the hard minimum), so the pageout daemon
      sees the same candidate set the page-at-a-time path would have
      produced — never a resolved-but-unmapped page;
    * a copy-on-write copy-up collapses the shadow chain per page,
      exactly like the scalar path — the chain memo re-walks after the
      epoch bump, so the ≤1-walk guarantee applies to runs that do not
      mutate the chain;
    * on any error, pending mappings are flushed before the error
      propagates, leaving every already-resolved page entered — the
      state the scalar loop would have left behind.
    """
    if npages <= 0:
        return []
    vm = kernel.vm
    start = vaddr & -vm.page_size
    events = kernel.events
    if events.active:
        with events.span("vm", "fault_batch", task=task.name,
                         vaddr=start, pages=npages,
                         fault_type=fault_type.name):
            return _resolve_batch(kernel, task, start, npages,
                                  fault_type, wiring)
    return _resolve_batch(kernel, task, start, npages, fault_type,
                          wiring)


def _covers(result, page_addr: int) -> bool:
    """Does the run's lookup result still govern *page_addr*?"""
    top = result.top_entry
    if not top.contains(page_addr):
        return False
    leaf = result.leaf_entry
    if leaf is top:
        return True
    return leaf.contains(top.offset_of(page_addr))


def _resolve_batch(kernel, task, start: int, npages: int,
                   fault_type: FaultType,
                   wiring: bool) -> list[FaultOutcome]:
    vm = kernel.vm
    page_size = vm.page_size
    vm_map = task.vm_map
    pmap = vm_map.pmap
    resident = vm.resident
    events = kernel.events
    clock = vm.clock
    costs = vm.costs
    # The modeled per-fault cost is unchanged: batching is a simulator
    # wall-clock optimization, not a change to the paper's cost model
    # (the Table 7-x benches stay pinned).
    per_fault_us = costs.fault_trap_us + costs.fault_mi_us
    writing = bool(int(fault_type) & _WRITE_BIT)
    stats = kernel.stats

    outcomes: list[FaultOutcome] = []
    #: (page_addr, page, prot_bits, wired) awaiting one enter_batch.
    #: :func:`_fault_page` has already applied every pending page's
    #: queue/state updates (referenced, modified, wire-or-activate) in
    #: fault order; only the hardware enter and the busy-clear wait.
    pending: list[tuple] = []

    def flush() -> None:
        if not pending:
            return
        if pmap is not None:
            pmap.enter_batch([(addr, page.phys_addr, _PROT[bits & 7],
                               wired) for addr, page, bits, wired
                              in pending])
        for _, page, _, _ in pending:
            page.busy = False
        pending.clear()

    result = None
    run_base = 0
    run_first_shadowed = False

    def step(cursor: int, outcome: FaultOutcome, span):
        """One page of the run: run management (map lookup / entry
        preparation on run boundaries, pre-reclaim flushing) plus the
        page's resolution — everything the scalar path does inside
        its ``vm/fault`` span except the pmap enter, which waits in
        *pending* for the run's flush."""
        nonlocal result, run_base, run_first_shadowed
        if result is None or not _covers(result, cursor):
            # New run: flush the finished one, re-resolve the map and
            # prepare the entry (materialize / shadow) exactly once.
            flush()
            with events.stage("map_lookup"):
                result = vm_map.lookup(cursor, fault_type)
            prep_outcome = FaultOutcome(page=None)  # type: ignore
            result = _prepare_entry(kernel, vm_map, result, cursor,
                                    fault_type, writing, prep_outcome)
            run_base = cursor
            run_first_shadowed = prep_outcome.shadow_created
        elif pending and \
                resident.free_count < resident.free_min + 2:
            # Enter what we have before a page whose resolution could
            # trip synchronous reclamation (one resolution allocates
            # at most two frames: a pagein plus a copy-up): the daemon
            # must see the same queues/mappings the scalar loop would
            # have built by now, never a resolved-but-unmapped page.
            flush()
        if run_first_shadowed:
            outcome.shadow_created = True
            run_first_shadowed = False
        prot_bits, page, wired = _fault_page(
            kernel, result, run_base, cursor, cursor, fault_type, writing,
            wiring, outcome, span)
        pending.append((cursor, page, prot_bits, wired))

    end = start + npages * page_size
    cursor = start
    while cursor < end:
        clock.charge(per_fault_us)
        stats.faults += 1
        outcome = FaultOutcome(page=None)  # type: ignore[arg-type]
        try:
            if events.active:
                with events.span("vm", "fault", task=task.name,
                                 vaddr=cursor,
                                 fault_type=fault_type.name) as span:
                    step(cursor, outcome, span)
            else:
                step(cursor, outcome, None)
        except BaseException:
            # Leave the state the scalar loop would have left: every
            # already-resolved page entered and queued.
            flush()
            raise
        outcomes.append(outcome)
        cursor += page_size

    flush()
    return outcomes


def resolve_task_fault(kernel, task, hw_fault) -> FaultOutcome:
    """Trap-handler entry: adjust an MMU-reported fault through the
    pmap's erratum hook (Section 5.1's NS32082 bug), then resolve it
    through the kernel's pluggable resolver (the differential harness
    swaps in the pinned reference implementation)."""
    pmap = task.vm_map.pmap
    fault_type = hw_fault.fault_type
    if pmap is not None:
        fault_type = pmap.translate_fault_type(hw_fault.vaddr, fault_type)
    return kernel.fault_resolver(kernel, task, hw_fault.vaddr, fault_type)
