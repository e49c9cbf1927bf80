"""A VAX-like pmap: 512-byte hardware pages under each VM page.

The VAX maps 512-byte pages, so one 4096-byte machine-independent page
takes eight consecutive hardware page table entries.  The MI layer
never sees them: it enters and removes whole pages through the
interface, and this class fans each call out.

That fan-out is the whole of the difference from the generic pmap, and
it is invisible above this package: the kernel asks for one page and
gets one page, whatever the hardware made of it.  A pmap for an MMU
with larger hardware pages than the VM page would instead have to
refuse, or map neighbouring pages together; the paper's ports chose
the VM page size at boot so that never happens.
"""

from repro.pmap.interface import Pmap


class VaxPmap(Pmap):
    """Each VM page becomes eight consecutive hardware pages."""

    HW_PAGE_SIZE = 512

    def __init__(self) -> None:
        super().__init__()
        self.hw_entries: dict[int, int] = {}

    def enter(self, va: int, frame: int, protection: int) -> None:
        """Map the page, then each of its hardware pages."""
        super().enter(va, frame, protection)
        for sub in range(0, 4096, self.HW_PAGE_SIZE):
            self.hw_entries[va + sub] = frame

    def remove(self, va: int) -> None:
        """Forget the page and each of its hardware pages."""
        super().remove(va)
        for sub in range(0, 4096, self.HW_PAGE_SIZE):
            self.hw_entries.pop(va + sub, None)
