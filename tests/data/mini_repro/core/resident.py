"""The resident page table: which frame holds which object page.

The machine-independent layer names a page by ``(object, offset)``,
never by virtual address: two tasks sharing an object share its
resident pages.  This table owns the frame pool.  It is the one
machine-independent module that may reach into ``hw.physmem`` (the
layering lint's substrate allowance); everything else asks it for
frames.

Keying pages by object rather than by address is what makes sharing
cheap: a second task that maps an object finds its pages already
resident and only needs pmap entries of its own.  It is also what lets
the pageout daemon evict a page without knowing which tasks map it,
once the pmap has been told to forget every mapping of the frame.
"""

from typing import Optional

from repro.hw.physmem import PhysicalMemory


class ResidentPageTable:
    """``(object, offset) -> frame`` for every page held in memory."""

    def __init__(self, nframes: int, frame_size: int) -> None:
        #: guarded-by boot-wiring
        self.memory = PhysicalMemory(nframes, frame_size)
        self.frames: dict[tuple[int, int], int] = {}

    def lookup(self, obj_id: int, offset: int) -> Optional[int]:
        """The frame holding the page, or None when it is not in
        memory (the fault must then bring it in)."""
        return self.frames.get((obj_id, offset))

    def bring_in(self, obj_id: int, offset: int) -> int:
        """Give the page a zeroed frame and return the frame number.
        Raises ResourceShortageError when the pool is empty."""
        frame = self.memory.take_frame()
        self.frames[(obj_id, offset)] = frame
        return frame

    def evict(self, obj_id: int, offset: int) -> None:
        """Return the page's frame, if it has one, to the pool.  The
        caller has already removed every mapping of the page."""
        frame = self.frames.pop((obj_id, offset), None)
        if frame is not None:
            self.memory.return_frame(frame)
