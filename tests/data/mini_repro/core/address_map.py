"""Address maps: sorted, non-overlapping regions of a task's space.

Each region (a map entry) names the memory object behind it, the offset
into that object where the region starts, and the protection the task
asked for.  A fault looks the faulting address up here first: no entry
means the task touched memory it never allocated.

The map is the record of what a task may touch, and the only one: a
pmap's page tables are a cache of it that may be thrown away at any
time.  So every question about what an address means (is it mapped,
with what protection, backed by which object at which offset) is
answered here, never by asking the pmap.
"""

from typing import Optional

from repro.core.constants import VM_PROT_ALL
from repro.core.vm_object import VMObject


class MapEntry:
    """One region: ``[start, end)`` backed by *obj* from *offset*,
    with the protection a fault may grant at most."""

    def __init__(self, start: int, end: int, obj: VMObject,
                 offset: int, protection: int) -> None:
        self.start = start
        self.end = end
        self.obj = obj
        self.offset = offset
        self.protection = protection


class AddressMap:
    """The regions of one task, kept in address order.

    Both fields change only under the map lock, which only map code
    takes: other modules read entries, and ask this class to change
    them.
    """

    def __init__(self, limit: int) -> None:
        #: guarded-by map-lock
        self.limit = limit
        #: guarded-by map-lock
        self.entries: list[MapEntry] = []

    def insert(self, size: int, obj: VMObject,
               protection: int = VM_PROT_ALL) -> int:
        """Map *obj* at the lowest address with *size* free bytes
        (first fit) and return that address.  Raises ValueError when no
        hole below the map's limit is large enough."""
        start = 0
        for entry in self.entries:
            if entry.start - start >= size:
                break
            start = entry.end
        if start + size > self.limit:
            raise ValueError("address space exhausted")
        self.entries.append(MapEntry(start, start + size, obj, 0,
                                     protection))
        self.entries.sort(key=lambda e: e.start)
        return start

    def lookup(self, addr: int) -> Optional[MapEntry]:
        """The entry whose region holds *addr*, or None.  A linear
        scan: the real map keeps a hint and a sorted list."""
        for entry in self.entries:
            if entry.start <= addr < entry.end:
                return entry
        return None
