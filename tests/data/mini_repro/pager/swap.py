"""Swap space: page contents kept by ``(object, offset)`` key.

When memory runs short the kernel writes a page it wants to evict here
and later reads it back on a fault.  A page written twice keeps its
slot, so a page that cycles in and out of memory costs one slot, not
one per trip.

Slots are handed out from a free list and never returned in this
miniature: a page keeps its slot for as long as the swap space lives,
so a later pageout of the same page overwrites its old copy in place.
"""

from repro.core.errors import ResourceShortageError


class SwapSpace:
    """*nslots* slots, each holding one page's bytes."""

    def __init__(self, nslots: int) -> None:
        self.contents: dict[tuple[int, int], tuple[int, bytes]] = {}
        self.unused = list(range(nslots))

    def store(self, key: tuple[int, int], data: bytes) -> int:
        """Keep *data* under *key* and return the slot it went to: the
        key's old slot if it has one, else a free one.  Raises
        ResourceShortageError when every slot is taken."""
        if key in self.contents:
            slot = self.contents[key][0]
        elif self.unused:
            slot = self.unused.pop()
        else:
            raise ResourceShortageError("swap space is full")
        self.contents[key] = (slot, bytes(data))
        return slot

    def load(self, key: tuple[int, int]) -> bytes:
        """The bytes stored under *key* (KeyError if none were)."""
        return self.contents[key][1]
