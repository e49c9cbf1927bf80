"""The kernel funnel: regions are created and faults resolved here.

A fault walks three structures in order.  The task's address map says
which object and offset back the faulting address and what protection
the region allows; the resident page table says whether that page is
in memory, and brings it in if not; and the pmap is then told to map
the page.  The pmap may later forget the mapping, which only costs
another fault, but it may never map more than the entry allows.

Every store to another class's guarded state happens in this module or
under a lock this module holds, which is why the guarded-by contract
lists ``core.kernel`` beside the owning modules for the object lock.
The funnel is also where a real kernel would retry a pager that
stalled, take the map lock before the object lock, and wake the
pageout daemon when the free pool runs low.  This miniature keeps the
order of the steps and leaves out the waiting: a page that is not
resident is zero-filled at once, and a full pool raises
``ResourceShortageError`` to the task instead of blocking it.

The kernel keys resident pages by ``(id(object), offset)``.  Two map
entries backed by one object therefore share its pages, as two tasks
sharing memory do in the paper's design, and a page brought in by one
task's fault is found resident by the other's.
"""

from typing import Optional

from repro.core.address_map import AddressMap
from repro.core.constants import PAGE_SIZE, round_page, trunc_page
from repro.core.errors import InvalidAddressError, ProtectionError
from repro.core.resident import ResidentPageTable
from repro.core.vm_object import VMObject
from repro.pmap.interface import Pmap


class MachKernel:
    """One machine: its resident pages, its pmap and one task's map.

    The three fields are wired once, here, and never retargeted.
    """

    def __init__(self, nframes: int = 16,
                 pmap: Optional[Pmap] = None) -> None:
        #: guarded-by boot-wiring
        self.resident = ResidentPageTable(nframes, PAGE_SIZE)
        #: guarded-by boot-wiring
        self.pmap = pmap if pmap is not None else Pmap()
        #: guarded-by boot-wiring
        self.vm_map = AddressMap(limit=nframes * 4 * PAGE_SIZE)

    def allocate(self, size: int) -> int:
        """A new zero-filled region of at least *size* bytes, backed
        by a fresh object; returns the region's address.  No page is
        touched until the task faults on it."""
        obj = VMObject(round_page(size))
        return self.vm_map.insert(obj.size, obj)

    def grow(self, obj: VMObject, size: int) -> None:
        """Extend *obj* to *size* bytes.  The funnel holds the object
        lock here, which is what lets this module store ``size``."""
        obj.size = round_page(size)

    def fault(self, addr: int, access: int) -> int:
        """Resolve a fault at *addr* for an *access* (protection bits)
        and return the frame now mapped there.  Raises
        InvalidAddressError outside every region and ProtectionError
        for an access the region does not allow."""
        entry = self.vm_map.lookup(addr)
        if entry is None:
            raise InvalidAddressError(f"no region holds {addr:#x}")
        if access & ~entry.protection:
            raise ProtectionError(f"{addr:#x} does not allow {access}")
        page = trunc_page(addr)
        offset = entry.offset + page - entry.start
        key = id(entry.obj)
        frame = self.resident.lookup(key, offset)
        if frame is None:
            frame = self.resident.bring_in(key, offset)
        self.pmap.enter(page, frame, entry.protection)
        return frame
