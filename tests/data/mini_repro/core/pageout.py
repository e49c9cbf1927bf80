"""The pageout daemon: makes room by writing pages out to swap.

When the free pool runs low, the daemon picks resident pages in the
order they were brought in (oldest first: the real kernel keeps active
and inactive queues and a second chance, this miniature keeps only the
order), removes every mapping of each one, saves its bytes to swap and
returns its frame.  The order of those steps is the point: a frame is
reused only after no pmap can still reach it, and its contents are
saved before they are zeroed.

The daemon never decides what a page means; it asks the resident table
which frame holds it and the swap space where to keep it, and it tells
the pmap only to forget.  A task that touches an evicted page faults,
and the kernel brings the page back in: correctness never depends on
what the daemon chose, only how fast the workload runs does.
"""

from repro.core.resident import ResidentPageTable
from repro.pager.swap import SwapSpace
from repro.pmap.interface import Pmap


class PageoutDaemon:
    """Evicts resident pages to *swap* until enough frames are free."""

    def __init__(self, resident: ResidentPageTable, pmap: Pmap,
                 swap: SwapSpace) -> None:
        self.resident = resident
        self.pmap = pmap
        self.swap = swap
        #: Virtual address each resident page was last mapped at, so
        #: its mapping can be removed before its frame is reused.
        self.mapped_at: dict[tuple[int, int], int] = {}

    def note_mapping(self, key: tuple[int, int], va: int) -> None:
        """Record that the page *key* is mapped at *va*."""
        self.mapped_at[key] = va

    def scan(self, wanted: int) -> int:
        """Evict pages, oldest first, until *wanted* frames are free or
        no resident page is left; returns how many pages went out."""
        evicted = 0
        # The resident table's dict keeps insertion order, which is the
        # order the pages were brought in.
        for key in list(self.resident.frames):
            if len(self.resident.memory.unused) >= wanted:
                break
            frame = self.resident.frames[key]
            va = self.mapped_at.pop(key, None)
            if va is not None:
                # Forget the mapping first: once the frame is back in
                # the pool, no translation may still lead to it.
                self.pmap.remove(va)
            self.swap.store(key, bytes(self.resident.memory.data[frame]))
            self.resident.evict(*key)
            evicted += 1
        return evicted
