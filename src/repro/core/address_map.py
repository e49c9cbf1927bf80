"""Address maps.

Section 3.2: "Addresses within a task address space are mapped to byte
offsets in memory objects by a data structure called an address map.  An
address map is a doubly linked list of address map entries ... sorted in
order of ascending virtual address and different entries may not map
overlapping regions of memory."

"This address map data structure was chosen over many alternatives
because it was the simplest that could efficiently implement the most
frequent operations performed on a task address space, namely: page
fault lookups, copy/protection operations on address ranges and
allocation/deallocation of address ranges. ... fast lookup on faults can
be achieved by keeping last fault 'hints'."

The same class implements *sharing maps* (Section 3.4): an address map
with no pmap, referenced from the entries of one or more task maps, so
that "map operations that should apply to all maps sharing the data are
simply applied to the sharing map."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core.constants import (
    FaultType,
    VMInherit,
    VMProt,
    page_aligned,
    round_page,
    trunc_page,
)
from repro.core.errors import (
    InvalidAddressError,
    InvalidArgumentError,
    NoSpaceError,
    ProtectionFailureError,
)
from repro.core.map_entry import MapEntry


@dataclass
class LookupResult:
    """Outcome of a fault-time address lookup.

    ``leaf_map``/``leaf_entry`` are where the memory object lives —
    either the task map itself or the sharing map one level down.
    ``protection`` is the effective permission at this address (top
    entry's current protection, intersected with the sharing-map leaf's).
    """

    top_entry: MapEntry
    leaf_map: "AddressMap"
    leaf_entry: MapEntry
    vm_object: object          # VMObject or None (lazy, not materialized)
    offset: int                # byte offset within vm_object
    protection: VMProt
    wired: bool
    needs_copy: bool


@dataclass
class RegionInfo:
    """One row of ``vm_regions`` output (Table 2-1)."""

    start: int
    size: int
    protection: VMProt
    max_protection: VMProt
    inheritance: VMInherit
    shared: bool
    object_id: Optional[int]
    offset: int


class AddressMap:
    """A task's (or sharing map's) sorted list of map entries.

    Args:
        vm: the VM system context; must expose ``objects``
            (:class:`~repro.core.vm_object.VMObjectManager`),
            ``page_size``, ``clock``, ``costs`` and ``pmap_system``.
        min_offset, max_offset: the addressable range.
        pmap: the physical map kept consistent with this address map;
            ``None`` for sharing maps.
        sharing_map: True for a sharing map (referenced from entries).
    """

    def __init__(self, vm, min_offset: int, max_offset: int,
                 pmap=None, sharing_map: bool = False) -> None:
        if max_offset <= min_offset:
            raise ValueError("empty address map range")
        self.vm = vm
        self.min_offset = min_offset
        self.max_offset = max_offset
        self.pmap = pmap
        self.is_sharing_map = sharing_map
        #: guarded-by map-lock
        self.ref_count = 1
        self._first: Optional[MapEntry] = None
        self._last: Optional[MapEntry] = None
        #: guarded-by map-lock
        self.nentries = 0
        #: guarded-by map-lock
        self.size = 0          # total mapped bytes
        self._hint: Optional[MapEntry] = None
        self.hint_hits = 0
        self.hint_misses = 0

    # ------------------------------------------------------------------
    # Basic list plumbing
    # ------------------------------------------------------------------

    @property
    def page_size(self) -> int:
        """The boot-time Mach page size in bytes."""
        return self.vm.page_size

    def entries(self) -> Iterator[MapEntry]:
        """Iterate the entries in ascending address order."""
        entry = self._first
        while entry is not None:
            nxt = entry.next
            yield entry
            entry = nxt

    def _link_after(self, prev: Optional[MapEntry], entry: MapEntry) -> None:
        """Insert *entry* after *prev* (or at the head when prev None)."""
        if prev is None:
            entry.next = self._first
            entry.prev = None
            if self._first is not None:
                self._first.prev = entry
            self._first = entry
            if self._last is None:
                self._last = entry
        else:
            entry.prev = prev
            entry.next = prev.next
            if prev.next is not None:
                prev.next.prev = entry
            prev.next = entry
            if self._last is prev:
                self._last = entry
        self.nentries += 1
        self.size += entry.size

    def _unlink(self, entry: MapEntry) -> None:
        if entry.prev is not None:
            entry.prev.next = entry.next
        else:
            self._first = entry.next
        if entry.next is not None:
            entry.next.prev = entry.prev
        else:
            self._last = entry.prev
        if self._hint is entry:
            self._hint = entry.prev
        entry.prev = entry.next = None
        self.nentries -= 1
        self.size -= entry.size

    # ------------------------------------------------------------------
    # Lookup (with last-fault hints)
    # ------------------------------------------------------------------

    def lookup_entry(self, address: int
                     ) -> tuple[bool, Optional[MapEntry]]:
        """Find the entry containing *address*.

        Returns ``(True, entry)`` on success, otherwise ``(False,
        predecessor)`` where predecessor is the last entry before
        *address* (or None when address precedes the whole list).

        "fast lookup on faults can be achieved by keeping last fault
        hints ... the address map list to be searched from the last
        entry found."
        """
        hint = self._hint
        if hint is not None and hint.contains(address):
            self.hint_hits += 1
            return True, hint
        self.hint_misses += 1
        # Choose scan start: from the hint when it precedes the target,
        # else from the head.
        if hint is not None and hint.end <= address:
            entry = hint
        else:
            entry = self._first
        prev: Optional[MapEntry] = None
        if entry is not None and entry is not self._first:
            prev = entry.prev
        visited = 0
        while entry is not None and entry.start <= address:
            visited += 1
            if entry.contains(address):
                self.vm.clock.charge(visited * self.vm.costs.map_scan_us)
                self._hint = entry
                return True, entry
            prev = entry
            entry = entry.next
        self.vm.clock.charge(visited * self.vm.costs.map_scan_us)
        return False, prev

    def lookup(self, address: int, fault_type: FaultType) -> LookupResult:
        """Fault-time resolution of *address*, descending one level of
        sharing map when present.

        Raises:
            InvalidAddressError: nothing is mapped at *address*.
            ProtectionFailureError: the mapping exists but does not
                permit the attempted access.
        """
        found, entry = self.lookup_entry(address)
        if not found:
            raise InvalidAddressError(
                f"address {address:#x} not mapped")
        prot = entry.protection
        required = VMProt(int(fault_type))
        if not prot.allows(required):
            raise ProtectionFailureError(
                f"{fault_type!r} access at {address:#x} exceeds "
                f"{prot!r}")
        if entry.is_sub_map:
            sub_addr = entry.offset_of(address)
            found, leaf = entry.submap.lookup_entry(sub_addr)
            if not found:
                raise InvalidAddressError(
                    f"sharing map hole at {address:#x}")
            eff = prot & leaf.protection
            if not eff.allows(required):
                raise ProtectionFailureError(
                    f"{fault_type!r} access at {address:#x} exceeds "
                    f"shared {eff!r}")
            return LookupResult(
                top_entry=entry, leaf_map=entry.submap, leaf_entry=leaf,
                vm_object=leaf.vm_object, offset=leaf.offset_of(sub_addr),
                protection=eff, wired=leaf.wired_count > 0,
                needs_copy=entry.needs_copy or leaf.needs_copy)
        return LookupResult(
            top_entry=entry, leaf_map=self, leaf_entry=entry,
            vm_object=entry.vm_object, offset=entry.offset_of(address),
            protection=prot, wired=entry.wired_count > 0,
            needs_copy=entry.needs_copy)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _check_range(self, start: int, size: int) -> tuple[int, int]:
        if size <= 0:
            raise InvalidArgumentError(f"non-positive size {size}")
        if not page_aligned(start, self.page_size):
            raise InvalidArgumentError(
                f"address {start:#x} not page aligned")
        end = round_page(start + size, self.page_size)
        if start < self.min_offset or end > self.max_offset:
            raise InvalidAddressError(
                f"[{start:#x},{end:#x}) outside map bounds")
        return start, end

    def find_space(self, size: int) -> int:
        """First-fit search for a hole of at least *size* bytes."""
        size = round_page(size, self.page_size)
        candidate = self.min_offset
        for entry in self.entries():
            if entry.start - candidate >= size:
                return candidate
            candidate = max(candidate, entry.end)
        if self.max_offset - candidate >= size:
            return candidate
        raise NoSpaceError(
            f"no {size:#x}-byte hole in [{self.min_offset:#x},"
            f"{self.max_offset:#x})")

    def allocate(self, size: int, address: Optional[int] = None,
                 anywhere: bool = True,
                 vm_object=None, offset: int = 0,
                 protection: VMProt = VMProt.DEFAULT,
                 max_protection: VMProt = VMProt.ALL,
                 inheritance: VMInherit = VMInherit.COPY,
                 needs_copy: bool = False) -> int:
        """Enter a new mapping; returns its start address.

        With ``anywhere`` the map chooses a hole (``vm_allocate``'s
        *anywhere* flag); otherwise *address* is honoured exactly and
        any overlap raises :class:`NoSpaceError`.

        A ``vm_object`` of None creates lazily materialized zero-fill
        memory — no memory object, no pages, and no pmap work happen
        until the first fault.
        """
        size = round_page(size, self.page_size)
        if anywhere and address is None:
            address = self.find_space(size)
        if address is None:
            raise InvalidArgumentError("address required when not anywhere")
        address = trunc_page(address, self.page_size)
        start, end = self._check_range(address, size)
        found, prev = self.lookup_entry(start)
        if found:
            raise NoSpaceError(f"address {start:#x} already mapped")
        nxt = prev.next if prev is not None else self._first
        if nxt is not None and nxt.start < end:
            raise NoSpaceError(
                f"range [{start:#x},{end:#x}) overlaps {nxt!r}")
        self.vm.clock.charge(self.vm.costs.map_entry_op_us)
        entry = MapEntry(start, end, vm_object=vm_object, offset=offset,
                         protection=protection,
                         max_protection=max_protection,
                         inheritance=inheritance, needs_copy=needs_copy)
        self._link_after(prev, entry)
        self._coalesce(entry)
        return start

    def map_submap(self, address: int, size: int, submap: "AddressMap",
                   offset: int = 0,
                   protection: VMProt = VMProt.DEFAULT,
                   max_protection: VMProt = VMProt.ALL) -> int:
        """Enter a sharing-map reference (used by fork with SHARE
        inheritance and by explicit shared mappings)."""
        size = round_page(size, self.page_size)
        start, end = self._check_range(address, size)
        found, prev = self.lookup_entry(start)
        if found:
            raise NoSpaceError(f"address {start:#x} already mapped")
        nxt = prev.next if prev is not None else self._first
        if nxt is not None and nxt.start < end:
            raise NoSpaceError(
                f"range [{start:#x},{end:#x}) overlaps {nxt!r}")
        self.vm.clock.charge(self.vm.costs.map_entry_op_us)
        entry = MapEntry(start, end, submap=submap, offset=offset,
                         protection=protection,
                         max_protection=max_protection,
                         inheritance=VMInherit.SHARE)
        submap.ref_count += 1
        self._link_after(prev, entry)
        return start

    # ------------------------------------------------------------------
    # Clipping and coalescing
    # ------------------------------------------------------------------

    def _reference_target(self, entry: MapEntry) -> None:
        """Take an extra reference on whatever *entry* maps."""
        if entry.submap is not None:
            entry.submap.ref_count += 1
        elif entry.vm_object is not None:
            entry.vm_object.reference()

    def _release_target(self, entry: MapEntry) -> None:
        """Drop the reference *entry* held."""
        if entry.submap is not None:
            self._deref_submap(entry.submap)
        elif entry.vm_object is not None:
            self.vm.objects.deallocate(entry.vm_object)

    def _deref_submap(self, submap: "AddressMap") -> None:
        submap.ref_count -= 1
        if submap.ref_count == 0:
            submap.destroy()

    def clip_start(self, entry: MapEntry, address: int) -> MapEntry:
        """Split *entry* so a new entry begins exactly at *address*;
        returns the entry now starting at *address*."""
        if address <= entry.start:
            return entry
        if address >= entry.end:
            raise ValueError(f"{address:#x} beyond {entry!r}")
        self.vm.clock.charge(self.vm.costs.map_entry_op_us)
        head_size = address - entry.start
        tail = MapEntry(address, entry.end,
                        vm_object=entry.vm_object, submap=entry.submap,
                        offset=entry.offset + head_size,
                        protection=entry.protection,
                        max_protection=entry.max_protection,
                        inheritance=entry.inheritance,
                        needs_copy=entry.needs_copy,
                        wired_count=entry.wired_count)
        self._reference_target(entry)
        self.size -= entry.size
        entry.end = address
        self.size += entry.size
        self._link_after(entry, tail)
        return tail

    def clip_end(self, entry: MapEntry, address: int) -> MapEntry:
        """Split *entry* so it ends exactly at *address*; returns the
        (head) entry ending at *address*."""
        if address >= entry.end:
            return entry
        if address <= entry.start:
            raise ValueError(f"{address:#x} before {entry!r}")
        self.clip_start(entry, address)
        return entry

    def _coalesce(self, entry: MapEntry) -> None:
        """Merge *entry* with compatible neighbours.

        Entries merge when their attributes match and they map adjacent
        offsets of the same (or no) object — the inverse of the forced
        split the paper describes: "This can force the system to
        allocate two address map entries that map adjacent memory
        regions to the same memory object simply because the properties
        of the two regions are different."
        """
        for neighbour in (entry.prev, entry.next):
            if neighbour is None:
                continue
            lo, hi = (neighbour, entry) if neighbour is entry.prev \
                else (entry, neighbour)
            if lo.end != hi.start or not lo.same_attributes(hi):
                continue
            if lo.vm_object is not None or lo.submap is not None:
                if lo.offset + lo.size != hi.offset:
                    continue
            # Merge hi into lo.
            self._unlink(hi)
            self._release_target(hi)
            self.size -= lo.size
            lo.end = hi.end
            self.size += lo.size
            if entry is hi:
                entry = lo
        self._hint = entry

    # ------------------------------------------------------------------
    # Deallocation
    # ------------------------------------------------------------------

    def _entries_in_range(self, start: int, end: int,
                          clip: bool = True,
                          require_coverage: bool = False
                          ) -> list[MapEntry]:
        """Collect (optionally clipping to) the entries overlapping
        [start, end)."""
        found, entry = self.lookup_entry(start)
        if not found:
            if require_coverage:
                raise InvalidAddressError(
                    f"range start {start:#x} not mapped")
            entry = entry.next if entry is not None else self._first
        result = []
        expected = start
        while entry is not None and entry.start < end:
            if require_coverage and entry.start > expected:
                raise InvalidAddressError(
                    f"hole at {expected:#x} inside operated range")
            if clip:
                if entry.start < start:
                    entry = self.clip_start(entry, start)
                if entry.end > end:
                    self.clip_end(entry, end)
            result.append(entry)
            expected = entry.end
            entry = entry.next
        if require_coverage and expected < end:
            raise InvalidAddressError(
                f"hole at {expected:#x} inside operated range")
        return result

    def delete_range(self, start: int, size: int) -> None:
        """``vm_deallocate``: remove all mappings in [start, start+size).

        Deallocating a hole (or a partially-mapped range) is allowed, as
        in Mach; existing entries inside the range go away, hardware
        mappings are removed, and object references are dropped.
        """
        start, end = self._check_range(start, size)
        for entry in self._entries_in_range(start, end):
            self.vm.clock.charge(self.vm.costs.map_entry_op_us)
            self._unlink(entry)
            if self.pmap is not None:
                self.pmap.remove(entry.start, entry.end)
            elif self.is_sharing_map:
                self._flush_leaf_hardware(entry)
            self._release_target(entry)

    def _flush_leaf_hardware(self, entry: MapEntry) -> None:
        """Remove hardware mappings for a sharing-map entry's pages:
        sharing maps have no pmap, so flushes go through the
        physical-to-virtual table."""
        if entry.vm_object is None:
            return
        for page in entry.vm_object.iter_resident():
            if entry.offset <= page.offset < entry.offset + entry.size:
                self.vm.pmap_system.remove_all(page.phys_addr)

    def destroy(self) -> None:
        """Tear the whole map down (task termination, dead sharing map)."""
        for entry in list(self.entries()):
            self._unlink(entry)
            if self.pmap is not None:
                self.pmap.remove(entry.start, entry.end)
            elif self.is_sharing_map:
                self._flush_leaf_hardware(entry)
            self._release_target(entry)
        self._hint = None

    # ------------------------------------------------------------------
    # Attribute operations
    # ------------------------------------------------------------------

    def protect(self, start: int, size: int, new_prot: VMProt,
                set_maximum: bool = False) -> None:
        """``vm_protect``: set current (or maximum) protection.

        "While the maximum protection can never be raised, it may be
        lowered.  If the maximum protection is lowered to a level below
        the current protection, the current protection is also lowered."
        """
        start, end = self._check_range(start, size)
        for entry in self._entries_in_range(start, end,
                                            require_coverage=True):
            self.vm.clock.charge(self.vm.costs.map_entry_op_us)
            if set_maximum:
                if new_prot & ~entry.max_protection:
                    raise ProtectionFailureError(
                        f"cannot raise maximum protection of {entry!r}")
                entry.max_protection = new_prot
                if entry.protection & ~new_prot:
                    entry.protection &= new_prot
            else:
                if new_prot & ~entry.max_protection:
                    raise ProtectionFailureError(
                        f"{new_prot!r} exceeds maximum "
                        f"{entry.max_protection!r}")
                entry.protection = new_prot
            self._push_protection(entry)

    def _push_protection(self, entry: MapEntry) -> None:
        """Reflect an entry's (possibly lowered) protection into the
        hardware map.  Raising needs no hardware work — the next fault
        re-validates lazily."""
        if self.pmap is not None:
            self.pmap.protect(entry.start, entry.end, entry.protection)
        elif self.is_sharing_map and entry.vm_object is not None:
            for page in entry.vm_object.iter_resident():
                if entry.offset <= page.offset < entry.offset + entry.size:
                    self.vm.pmap_system.page_protect(
                        page.phys_addr, entry.protection)

    def inherit(self, start: int, size: int,
                new_inheritance: VMInherit) -> None:
        """``vm_inherit``: set the inheritance attribute of a range."""
        if not isinstance(new_inheritance, VMInherit):
            raise InvalidArgumentError(
                f"bad inheritance value {new_inheritance!r}")
        start, end = self._check_range(start, size)
        for entry in self._entries_in_range(start, end,
                                            require_coverage=True):
            self.vm.clock.charge(self.vm.costs.map_entry_op_us)
            entry.inheritance = new_inheritance

    def regions(self) -> list[RegionInfo]:
        """``vm_regions``: describe every mapped region."""
        result = []
        for entry in self.entries():
            obj = entry.vm_object
            result.append(RegionInfo(
                start=entry.start, size=entry.size,
                protection=entry.protection,
                max_protection=entry.max_protection,
                inheritance=entry.inheritance,
                shared=entry.is_sub_map,
                object_id=obj.object_id if obj is not None else None,
                offset=entry.offset))
        return result

    # ------------------------------------------------------------------
    # Copy-on-write copying (vm_copy, message transfer, fork COPY)
    # ------------------------------------------------------------------

    def _cow_protect_source(self, entry: MapEntry) -> None:
        """Write-protect the resident pages backing *entry* so the next
        write (from either side of the new copy) faults."""
        obj = entry.vm_object
        if obj is None:
            return
        for page in obj.iter_resident():
            if entry.offset <= page.offset < entry.offset + entry.size:
                self.vm.pmap_system.copy_on_write(page.phys_addr)

    def copy_entry_cow(self, entry: MapEntry, dst_map: "AddressMap",
                       dst_start: int,
                       inheritance: Optional[VMInherit] = None) -> None:
        """Create a copy-on-write twin of *entry* at *dst_start* in
        *dst_map* ("Pages marked as copy are logically copied by value,
        although for efficiency copy-on-write techniques are employed").

        Both sides end up ``needs_copy``: whichever writes first gets a
        shadow object (symmetric copy-on-write).
        """
        if entry.wired_count:
            raise InvalidArgumentError(
                f"cannot copy wired entry {entry!r} by COW")
        inherit = inheritance if inheritance is not None \
            else entry.inheritance
        if entry.is_sub_map:
            # Copying a shared region snapshots its current contents:
            # descend and copy each leaf range the entry covers.
            sub = entry.submap
            cursor = entry.start
            for leaf in sub._entries_in_range(
                    entry.offset, entry.offset + entry.size,
                    require_coverage=True):
                span = leaf.end - leaf.start
                sub.copy_entry_cow(
                    leaf, dst_map, dst_start + (cursor - entry.start),
                    inheritance=inherit)
                cursor += span
            return
        self.vm.clock.charge(self.vm.costs.map_entry_op_us)
        obj = entry.vm_object
        if obj is None:
            # Nothing materialized yet: the copy is simply fresh
            # zero-fill memory with the same attributes.
            dst_map.allocate(entry.size, address=dst_start, anywhere=False,
                             protection=entry.protection,
                             max_protection=entry.max_protection,
                             inheritance=inherit)
            return
        entry.needs_copy = True
        self._cow_protect_source(entry)
        dst_map.allocate(entry.size, address=dst_start, anywhere=False,
                         vm_object=obj.reference(), offset=entry.offset,
                         protection=entry.protection,
                         max_protection=entry.max_protection,
                         inheritance=inherit, needs_copy=True)

    def copy_region(self, src_start: int, size: int,
                    dst_map: "AddressMap",
                    dst_start: Optional[int] = None) -> int:
        """``vm_copy`` / out-of-line message transfer: virtually copy
        [src_start, src_start+size) into *dst_map*.

        Returns the destination address (chosen first-fit when
        *dst_start* is None).  "An entire address space may be sent in a
        single message with no actual data copy operations performed."
        """
        src_start, src_end = self._check_range(src_start, size)
        if dst_start is None:
            dst_start = dst_map.find_space(src_end - src_start)
        entries = self._entries_in_range(src_start, src_end,
                                         require_coverage=True)
        for entry in entries:
            self.copy_entry_cow(
                entry, dst_map, dst_start + (entry.start - src_start))
        return dst_start

    # ------------------------------------------------------------------
    # Fork support
    # ------------------------------------------------------------------

    def _ensure_sharing_map(self, entry: MapEntry) -> "AddressMap":
        """Convert an object-mapping entry into a sharing-map entry
        (first SHARE-inheritance fork of this region)."""
        if entry.is_sub_map:
            return entry.submap
        submap = AddressMap(self.vm, 0, entry.size, pmap=None,
                            sharing_map=True)
        leaf = MapEntry(0, entry.size,
                        vm_object=entry.vm_object, offset=entry.offset,
                        protection=entry.max_protection,
                        max_protection=entry.max_protection,
                        inheritance=VMInherit.SHARE,
                        needs_copy=entry.needs_copy)
        submap._link_after(None, leaf)
        entry.vm_object = None
        entry.offset = 0
        entry.needs_copy = False
        entry.submap = submap
        return submap

    def fork_into(self, child_map: "AddressMap") -> None:
        """Populate *child_map* according to this map's inheritance
        values (the guts of ``task_create`` for a forking task).

        * NONE — "the child's corresponding address is left unallocated";
        * SHARE — parent and child reference a common sharing map;
        * COPY — symmetric copy-on-write twin entries.
        """
        for entry in list(self.entries()):
            if entry.inheritance is VMInherit.NONE:
                continue
            if entry.inheritance is VMInherit.SHARE:
                submap = self._ensure_sharing_map(entry)
                child_map.map_submap(
                    entry.start, entry.size, submap, offset=entry.offset,
                    protection=entry.protection,
                    max_protection=entry.max_protection)
            else:
                self.copy_entry_cow(entry, child_map, entry.start)

    # ------------------------------------------------------------------
    # Invariants (exercised by the property-based tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the map's structural invariants (sorted, non-overlapping, size-consistent)."""
        prev = None
        total = 0
        count = 0
        entry = self._first
        while entry is not None:
            assert entry.start < entry.end, f"empty {entry!r}"
            assert entry.start >= self.min_offset, f"{entry!r} below map"
            assert entry.end <= self.max_offset, f"{entry!r} above map"
            assert page_aligned(entry.start, self.page_size), \
                f"{entry!r} start unaligned"
            assert page_aligned(entry.end, self.page_size), \
                f"{entry!r} end unaligned"
            if prev is not None:
                assert prev.end <= entry.start, \
                    f"{prev!r} overlaps {entry!r}"
                assert entry.prev is prev and prev.next is entry, \
                    "broken links"
            else:
                assert entry.prev is None
            assert not (entry.protection & ~entry.max_protection), \
                f"{entry!r} current protection exceeds maximum"
            if entry.is_sub_map:
                assert entry.vm_object is None
                assert not entry.submap.is_sharing_map or \
                    all(not leaf.is_sub_map
                        for leaf in entry.submap.entries()), \
                    "sharing maps must not nest"
            total += entry.size
            count += 1
            prev = entry
            entry = entry.next
        assert prev is self._last
        assert total == self.size, f"size {self.size} != sum {total}"
        assert count == self.nentries

    def __repr__(self) -> str:
        kind = "SharingMap" if self.is_sharing_map else "AddressMap"
        return (f"{kind}([{self.min_offset:#x},{self.max_offset:#x}), "
                f"{self.nentries} entries, {self.size:#x} bytes)")
