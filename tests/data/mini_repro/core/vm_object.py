"""Memory objects: a size, a reference count and a shadow chain.

A memory object is a repository of pages that one or more address map
entries refer to.  A copy-on-write copy puts a new *shadow* object in
front of the original: pages the copy writes land in the shadow, and
reads of pages it never wrote fall through to the object behind it.
Long chains cost every fault a walk, so the real kernel collapses them;
this miniature only measures them.

The object is also the unit of sharing.  Two map entries, in one task
or in two, that name the same object see the same pages; a
copy-on-write copy instead gives the copier a shadow, so its writes
stay its own while the pages it only reads stay shared.  Reference
counts keep an object alive while any entry or shadow still names it,
and an object whose last reference is dropped takes its resident pages
with it.
"""

from typing import Optional


class VMObject:
    """A repository of pages, possibly shadowing another object.

    ``size`` changes only under the object lock, held by the kernel
    funnel; ``ref_count`` and ``shadow`` are the object manager's own
    business.  The guard annotations below say so, and the guarded-by
    lint checks every store to them against that.
    """

    def __init__(self, size: int) -> None:
        #: guarded-by object-lock
        self.size = size
        #: guarded-by object-ref
        self.ref_count = 1
        #: guarded-by object-ref
        self.shadow: Optional[VMObject] = None

    def take_reference(self) -> None:
        """One more holder (a map entry or a shadow in front of this
        object) uses the object; it lives until every holder is done."""
        self.ref_count += 1

    def drop_reference(self) -> bool:
        """One holder is done with the object.  Returns True when that
        was the last reference, when the caller tears the object down."""
        self.ref_count -= 1
        return self.ref_count == 0

    def make_shadow(self) -> "VMObject":
        """A new, empty object in front of this one, for a
        copy-on-write copy.  The shadow holds this object's reference
        for as long as it lives."""
        front = VMObject(self.size)
        front.shadow = self
        return front

    def chain_length(self) -> int:
        """Objects from this one to the bottom of its shadow chain,
        counting both ends: the number of lookups a fault on a page
        nobody wrote must make before it zero-fills."""
        length, current = 1, self.shadow
        while current is not None:
            length, current = length + 1, current.shadow
        return length
