"""The pmap interface: all the machine-independent layer may call.

A pmap is a cache of mappings, not their record: the address maps and
memory objects are the record.  So a pmap may drop any mapping at any
time (the next access faults and the kernel enters it again), but it
must never map a page with more protection than the kernel asked for.

The interface is small on purpose.  A port to a new MMU implements
these few operations over whatever page table the hardware walks and
changes nothing above this package; the machine-independent layer in
turn may assume nothing about that page table, not even that one
exists (an inverted table or a software-loaded TLB serve as well).
"""


class Pmap:
    """Virtual page -> (frame, protection), as the MMU would see it.

    This base class is also the generic pmap: one dictionary entry per
    machine-independent page.
    """

    #: Bytes one hardware page maps.
    HW_PAGE_SIZE = 4096

    def __init__(self) -> None:
        self.mappings: dict[int, tuple[int, int]] = {}

    def enter(self, va: int, frame: int, protection: int) -> None:
        """Map the page at *va* to *frame*, allowing *protection*."""
        self.mappings[va] = (frame, protection)

    def remove(self, va: int) -> None:
        """Forget the page at *va*; a later access faults again."""
        self.mappings.pop(va, None)

    def extract(self, va: int):
        """The frame mapped at *va*, or None when nothing is."""
        found = self.mappings.get(va)
        return None if found is None else found[0]
