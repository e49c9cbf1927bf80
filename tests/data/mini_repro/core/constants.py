"""Vocabulary shared by every layer: the page size and protections.

Both halves of the VM system may import this module (the layering lint
lists it as vocabulary), so it holds plain values and pure functions
only: no state, and nothing that could pull a layer's internals into
another layer.

Keeping the vocabulary this small is deliberate.  Every constant here
is one that both halves of the system must agree on; anything only one
half needs lives in that half, where the layering lint can see who
uses it.
"""

#: The machine-independent page size.  A pmap may map one such page as
#: several smaller hardware pages; the MI layer never sees those.
PAGE_SIZE = 4096

#: Protection bits, as a task asks for them and as a map entry keeps
#: them.  The pmap may grant less than an entry allows, never more.
VM_PROT_NONE = 0
VM_PROT_READ = 1
VM_PROT_WRITE = 2
VM_PROT_ALL = VM_PROT_READ | VM_PROT_WRITE


def is_power_of_two(value: int) -> bool:
    """True for 1, 2, 4, ...: page and frame sizes must be, so that an
    address splits into a page number and an offset with a mask."""
    return value > 0 and value & (value - 1) == 0


def trunc_page(addr: int, page_size: int = PAGE_SIZE) -> int:
    """*addr* rounded down to the start of the page holding it."""
    return addr & ~(page_size - 1)


def round_page(addr: int, page_size: int = PAGE_SIZE) -> int:
    """*addr* rounded up to the next page boundary (an address already
    on a boundary is returned as it is)."""
    return trunc_page(addr + page_size - 1, page_size)
