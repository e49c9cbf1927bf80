"""Swap space for the default pager.

The current Mach "inode pager utilizes 4.3bsd UNIX file systems and
eliminates the traditional Berkeley UNIX need for separate paging
partitions" (Section 3.3).  We model the same property: swap slots are
allocated out of a (simulated) filesystem's block store when one is
attached, or out of a standalone block pool otherwise; either way every
slot read/write pays disk costs on the machine's clock.
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import ResourceShortageError


class SwapSpace:
    """A pool of page-sized swap slots with disk-cost accounting."""

    def __init__(self, machine, total_slots: int = 4096) -> None:
        self.machine = machine
        self.total_slots = total_slots
        #: Slots freed since boot, reused last-freed first; slots from
        #: ``_next`` up have never been handed out.
        self._free: list[int] = []
        self._next = 0
        #: slot -> bytes (the stored page contents).
        self._store: dict[int, bytes] = {}
        self.writes = 0
        self.reads = 0

    @property
    def slots_used(self) -> int:
        """Number of swap slots holding data."""
        return len(self._store)

    @property
    def slots_free(self) -> int:
        """Number of unallocated swap slots."""
        return len(self._free) + self.total_slots - self._next

    def _refill(self) -> bool:
        """Put the lowest never-used slot on an empty free list; False
        when every slot is in use."""
        if not self._free:
            if self._next == self.total_slots:
                return False
            self._free.append(self._next)
            self._next += 1
        return True

    def _charge_transfer(self) -> None:
        costs = self.machine.costs
        self.machine.clock.wait(costs.disk_seek_us + costs.disk_block_us)

    def write_slot(self, data: bytes, slot: Optional[int] = None) -> int:
        """Store one page; returns its slot (reusing *slot* if given).

        A failed write returns a freshly allocated slot to the free
        pool (same contract as :meth:`FileBackedSwap.write_slot`):
        repeated pageout attempts against a faulty disk must not leak
        swap space.
        """
        fresh = slot is None
        if fresh:
            if not self._refill():
                raise ResourceShortageError("swap space exhausted")
            slot = self._free.pop()
        try:
            self._charge_transfer()
            self._store[slot] = bytes(data)
        except Exception:
            if fresh:
                self._free.append(slot)
            raise
        self.writes += 1
        return slot

    def read_slot(self, slot: int) -> bytes:
        """Read one page-sized slot back (pays disk costs)."""
        self._charge_transfer()
        self.reads += 1
        return self._store[slot]

    def read_slots(self, slots: list[int]) -> list[bytes]:
        """Read several slots in one batched transfer.

        The v2 pager protocol's scatter-gather pageins land here: one
        seek amortized over every slot, then one block transfer each —
        versus ``len(slots)`` seeks through repeated :meth:`read_slot`
        calls.  Order of results matches *slots*.
        """
        if not slots:
            return []
        costs = self.machine.costs
        self.machine.clock.wait(costs.disk_seek_us
                                + costs.disk_block_us * len(slots))
        self.reads += len(slots)
        return [self._store[slot] for slot in slots]

    def free_slot(self, slot: int) -> None:
        """Return a slot to the free pool (no-op if unknown)."""
        if slot in self._store:
            del self._store[slot]
            self._free.append(slot)

    def __repr__(self) -> str:
        return (f"SwapSpace({self.slots_used}/{self.total_slots} slots "
                f"used)")


class FileBackedSwap(SwapSpace):
    """Swap slots stored in an ordinary file of a filesystem.

    This is the paper's arrangement: "The current inode pager utilizes
    4.3bsd UNIX file systems and eliminates the traditional Berkeley
    UNIX need for separate paging partitions."  Slot I/O goes through
    the filesystem's direct (non-buffer-cache) path, so paging traffic
    shares the disk with file traffic but never pollutes the buffer
    cache.
    """

    def __init__(self, fs, slot_size: int,
                 path: str = "/private/swapfile",
                 total_slots: int = 2048) -> None:
        super().__init__(fs.machine, total_slots=total_slots)
        self.fs = fs
        self.slot_size = slot_size
        self.path = path
        if not fs.exists(path):
            fs.create(path)
        self.inode = fs.lookup(path)
        # Reserve the file's blocks up front (a swap file is
        # preallocated so pageout never fails on a full disk).
        fs._extend_to(self.inode, total_slots * slot_size)

    def write_slot(self, data: bytes, slot=None) -> int:
        """Store one page into a slot (pays disk costs).

        A failed write returns a freshly allocated slot to the free
        pool — repeated pageout attempts against a faulty disk must
        not leak swap space.
        """
        # Normalize before allocating: a surprise in the data must not
        # cost a slot.
        data = bytes(data)[:self.slot_size]
        fresh = slot is None
        if fresh:
            if not self._refill():
                raise ResourceShortageError("swap file full")
            slot = self._free.pop()
        try:
            self.fs.write_direct(self.inode, slot * self.slot_size, data)
        except Exception:
            if fresh:
                self._free.append(slot)
            raise
        self._store[slot] = True          # occupancy only; data is in fs
        self.writes += 1
        return slot

    def read_slot(self, slot: int) -> bytes:
        """Read one page-sized slot back (pays disk costs)."""
        if slot not in self._store:
            raise KeyError(f"swap slot {slot} not in use")
        self.reads += 1
        #: no-retry — slot reads serve pagein data_requests, which the
        #: kernel's _call_pager funnel retries with backoff.
        return self.fs.read_direct(self.inode, slot * self.slot_size,
                                   self.slot_size)

    def read_slots(self, slots: list[int]) -> list[bytes]:
        """Read several slots (one direct I/O each — the filesystem's
        direct path charges per request, so file-backed swap sees no
        seek amortization; the scatter-gather *reply* shape still
        saves pager round trips)."""
        return [self.read_slot(slot) for slot in slots]
