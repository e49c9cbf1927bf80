"""Simulated physical memory.

Physical memory is a set of byte-addressable segments (so machines like
the SUN 3, whose display memory punches "holes" into the physical address
space, can be modelled faithfully — see Section 5.1 of the paper) carved
into fixed-size *frames*.  The frame size is the boot-time Mach page
size: the machine-independent layer allocates, zeroes, copies and frees
whole frames, while the machine-dependent pmap layer may map a frame as
several smaller hardware pages.

Frame contents are real ``bytearray`` data; the fault handler, pagers and
copy-on-write logic move actual bytes, so tests can verify end-to-end
data integrity, not just bookkeeping.

Like the resident page table above it, the store is filled on demand:
a frame costs host memory only once it is handed out, and only holds
bytes once something non-zero is written to it.  Booting a machine
therefore costs the same whatever its configured RAM.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.constants import is_power_of_two
from repro.core.errors import ResourceShortageError


class MemorySegment:
    """A contiguous range of physical addresses backed by RAM."""

    def __init__(self, start: int, size: int) -> None:
        if start < 0 or size <= 0:
            raise ValueError("segment must have non-negative start and "
                             "positive size")
        self.start = start
        self.size = size

    @property
    def end(self) -> int:
        """One past the last byte of the segment."""
        return self.start + self.size

    def __repr__(self) -> str:
        return f"MemorySegment({self.start:#x}..{self.end:#x})"


class PhysicalMemory:
    """Frame allocator and byte store over a set of memory segments.

    Args:
        frame_size: allocation unit in bytes (the Mach page size).
        segments: physical RAM ranges; each must be frame-aligned.
    """

    def __init__(self, frame_size: int,
                 segments: Iterable[MemorySegment]) -> None:
        if not is_power_of_two(frame_size):
            raise ValueError(f"frame size {frame_size} not a power of two")
        self.frame_size = frame_size
        self.segments = sorted(segments, key=lambda s: s.start)
        if not self.segments:
            raise ValueError("physical memory needs at least one segment")
        for prev, nxt in zip(self.segments, self.segments[1:]):
            if nxt.start < prev.end:
                raise ValueError("physical memory segments overlap")
        for seg in self.segments:
            if seg.start % frame_size or seg.size % frame_size:
                raise ValueError(
                    f"{seg!r} is not aligned to the {frame_size}-byte frame")
        self._total = sum(seg.size for seg in self.segments) // frame_size
        # Frames freed since boot are reused last-freed first.  When none
        # is waiting, the cursor hands out the lowest frame never used
        # before, so a fresh machine allocates from low addresses up.
        self._free: list[int] = []
        #: The cursor: index of its segment and the next unused frame.
        self._segment = 0
        self._next = self.segments[0].start
        self._allocated: set[int] = set()
        self._data: dict[int, bytearray] = {}

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    @property
    def total_frames(self) -> int:
        """Number of RAM frames this store holds."""
        return self._total

    @property
    def free_frames(self) -> int:
        """Number of currently unallocated frames."""
        return self._total - len(self._allocated)

    @property
    def allocated_frames(self) -> int:
        """Number of currently allocated frames."""
        return len(self._allocated)

    def allocate_frame(self) -> int:
        """Allocate one frame; returns its physical base address.

        Raises:
            ResourceShortageError: when no frame is free.  Callers above
                the resident-page layer never see this: the pageout
                daemon reclaims pages first.
        """
        if self._free:
            addr = self._free.pop()
        else:
            addr = self._unused_frame()
        self._allocated.add(addr)
        return addr

    def _unused_frame(self) -> int:
        """The lowest never-used frame; the cursor moves past it and
        skips holes."""
        segments = self.segments
        while self._next >= segments[self._segment].end:
            if self._segment + 1 == len(segments):
                raise ResourceShortageError("physical memory exhausted")
            self._segment += 1
            self._next = segments[self._segment].start
        addr = self._next
        self._next = addr + self.frame_size
        return addr

    def free_frame(self, addr: int) -> None:
        """Return a frame to the free pool (contents discarded)."""
        if addr not in self._allocated:
            raise ValueError(f"frame {addr:#x} is not allocated")
        self._allocated.remove(addr)
        self._data.pop(addr, None)
        self._free.append(addr)

    def is_valid(self, addr: int) -> bool:
        """True when *addr* is the base of a RAM frame (not a hole)."""
        return addr % self.frame_size == 0 and self._in_ram(addr)

    def _in_ram(self, addr: int) -> bool:
        return any(seg.start <= addr < seg.end for seg in self.segments)

    # ------------------------------------------------------------------
    # Data access (byte-addressed, may straddle nothing: one frame only)
    # ------------------------------------------------------------------

    def _frame_for(self, addr: int, size: int) -> tuple[int, int]:
        base = addr - (addr % self.frame_size)
        # Allocated frames are the common case; a free frame is legal
        # too (its reads are zeros), a hole is not.
        if base not in self._allocated and not self._in_ram(base):
            raise ValueError(f"physical address {addr:#x} is in a hole")
        offset = addr - base
        if offset + size > self.frame_size:
            raise ValueError("physical access crosses a frame boundary")
        return base, offset

    def _backing(self, base: int) -> bytearray:
        buf = self._data.get(base)
        if buf is None:
            buf = bytearray(self.frame_size)
            self._data[base] = buf
        return buf

    def read(self, addr: int, size: int) -> bytes:
        """Read *size* bytes at physical address *addr* (one frame)."""
        base, offset = self._frame_for(addr, size)
        buf = self._data.get(base)
        if buf is None:
            return bytes(size)
        return bytes(buf[offset:offset + size])

    def write(self, addr: int, data: bytes) -> None:
        """Write *data* at physical address *addr* (one frame)."""
        base, offset = self._frame_for(addr, len(data))
        self._backing(base)[offset:offset + len(data)] = data

    def zero_frame(self, addr: int) -> None:
        """Fill one frame with zeros (an all-zero frame stores no bytes)."""
        base, _ = self._frame_for(addr, self.frame_size)
        self._data.pop(base, None)

    def copy_frame(self, src: int, dst: int) -> None:
        """Copy one whole frame's contents."""
        sbase, _ = self._frame_for(src, self.frame_size)
        dbase, _ = self._frame_for(dst, self.frame_size)
        src_buf = self._data.get(sbase)
        if src_buf is None:
            self._data.pop(dbase, None)
        else:
            self._data[dbase] = bytearray(src_buf)
