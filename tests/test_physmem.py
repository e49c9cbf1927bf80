"""Unit tests for simulated physical memory (frames, holes, data)."""

import tracemalloc

import pytest

from repro.core.errors import ResourceShortageError
from repro.hw.machine import SUN_3_160
from repro.hw.physmem import MemorySegment, PhysicalMemory


def make_mem(frames=8, frame_size=4096, segments=None):
    if segments is None:
        segments = [MemorySegment(0, frames * frame_size)]
    return PhysicalMemory(frame_size, segments)


class TestAllocation:
    def test_counts(self):
        mem = make_mem(frames=8)
        assert mem.total_frames == 8
        assert mem.free_frames == 8
        addr = mem.allocate_frame()
        assert mem.free_frames == 7
        assert mem.allocated_frames == 1
        mem.free_frame(addr)
        assert mem.free_frames == 8

    def test_exhaustion(self):
        mem = make_mem(frames=2)
        mem.allocate_frame()
        mem.allocate_frame()
        with pytest.raises(ResourceShortageError):
            mem.allocate_frame()

    def test_double_free_rejected(self):
        mem = make_mem()
        addr = mem.allocate_frame()
        mem.free_frame(addr)
        with pytest.raises(ValueError):
            mem.free_frame(addr)

    def test_frames_are_frame_aligned(self):
        mem = make_mem(frame_size=8192)
        for _ in range(4):
            assert mem.allocate_frame() % 8192 == 0


class TestPoolOrder:
    """The pool hands frames out in one fixed order, which every
    simulated result depends on: never-used frames lowest address
    first, and freed frames before them, last-freed first."""

    def test_fresh_frames_come_out_lowest_first(self):
        mem = make_mem(frames=6)
        assert [mem.allocate_frame() for _ in range(6)] == [
            n * 4096 for n in range(6)]

    def test_freed_frames_are_reused_last_freed_first(self):
        mem = make_mem(frames=8)
        addrs = [mem.allocate_frame() for _ in range(4)]
        mem.free_frame(addrs[1])
        mem.free_frame(addrs[3])
        mem.free_frame(addrs[0])
        assert [mem.allocate_frame() for _ in range(5)] == [
            addrs[0], addrs[3], addrs[1], 4 * 4096, 5 * 4096]

    def test_holes_are_skipped_in_ascending_order(self):
        # A SUN 3-style shape, given out of order: RAM, a hole, RAM.
        mem = make_mem(segments=[MemorySegment(5 * 4096, 2 * 4096),
                                 MemorySegment(0, 3 * 4096)])
        assert [mem.allocate_frame() for _ in range(5)] == [
            0, 4096, 2 * 4096, 5 * 4096, 6 * 4096]
        with pytest.raises(ResourceShortageError):
            mem.allocate_frame()

    def test_sun3_display_hole_is_never_handed_out(self):
        mem = PhysicalMemory(SUN_3_160.default_page_size,
                             [MemorySegment(start, size) for start, size
                              in SUN_3_160.memory_segments])
        frames = [mem.allocate_frame() for _ in range(mem.total_frames)]
        assert frames == sorted(frames)
        assert len(frames) == 2048
        assert not [f for f in frames if 12 << 20 <= f < 14 << 20]
        assert frames[1535:1537] == [(12 << 20) - 8192, 14 << 20]


class TestPoolAccounting:
    def _counts(self, mem):
        return mem.total_frames, mem.free_frames, mem.allocated_frames

    def test_counts_at_boot_mid_run_and_exhaustion(self):
        mem = make_mem(segments=[MemorySegment(0, 2 * 4096),
                                 MemorySegment(8 * 4096, 3 * 4096)])
        assert self._counts(mem) == (5, 5, 0)
        addrs = [mem.allocate_frame() for _ in range(3)]
        mem.free_frame(addrs[0])
        assert self._counts(mem) == (5, 3, 2)
        while mem.free_frames:
            mem.allocate_frame()
        assert self._counts(mem) == (5, 0, 5)
        with pytest.raises(ResourceShortageError):
            mem.allocate_frame()
        assert self._counts(mem) == (5, 0, 5)
        mem.free_frame(addrs[1])
        assert self._counts(mem) == (5, 1, 4)
        assert mem.allocate_frame() == addrs[1]

    def test_boot_costs_nothing_per_configured_frame(self):
        """Booting 16 GiB of frames allocates under 64 KiB: the pool
        is paid for as the simulation uses it, not as it is sized."""
        tracemalloc.start()
        try:
            mem = make_mem(segments=[MemorySegment(0, 16 << 30)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mem.total_frames == 4 << 20
        assert peak < 64 << 10


class TestHoles:
    """Section 5.1's SUN 3 display-memory holes."""

    def test_hole_is_not_valid(self):
        mem = make_mem(segments=[MemorySegment(0, 2 * 4096),
                                 MemorySegment(4 * 4096, 2 * 4096)])
        assert mem.total_frames == 4
        assert mem.is_valid(0)
        assert mem.is_valid(4096)
        assert not mem.is_valid(2 * 4096)   # in the hole
        assert not mem.is_valid(3 * 4096)
        assert mem.is_valid(4 * 4096)

    def test_hole_never_allocated(self):
        mem = make_mem(segments=[MemorySegment(0, 4096),
                                 MemorySegment(3 * 4096, 4096)])
        addrs = {mem.allocate_frame(), mem.allocate_frame()}
        assert addrs == {0, 3 * 4096}

    def test_access_in_hole_rejected(self):
        mem = make_mem(segments=[MemorySegment(0, 4096),
                                 MemorySegment(3 * 4096, 4096)])
        with pytest.raises(ValueError):
            mem.read(4096, 4)

    def test_overlapping_segments_rejected(self):
        with pytest.raises(ValueError):
            make_mem(segments=[MemorySegment(0, 8192),
                               MemorySegment(4096, 8192)])

    def test_unaligned_segment_rejected(self):
        with pytest.raises(ValueError):
            make_mem(segments=[MemorySegment(100, 4096)])


class TestData:
    def test_read_of_fresh_frame_is_zero(self):
        mem = make_mem()
        addr = mem.allocate_frame()
        assert mem.read(addr, 16) == bytes(16)

    def test_write_read_roundtrip(self):
        mem = make_mem()
        addr = mem.allocate_frame()
        mem.write(addr + 100, b"hello")
        assert mem.read(addr + 100, 5) == b"hello"
        assert mem.read(addr + 99, 1) == b"\x00"

    def test_cross_frame_access_rejected(self):
        mem = make_mem()
        addr = mem.allocate_frame()
        with pytest.raises(ValueError):
            mem.write(addr + 4090, b"0123456789")

    def test_zero_frame(self):
        mem = make_mem()
        addr = mem.allocate_frame()
        mem.write(addr, b"junk")
        mem.zero_frame(addr)
        assert mem.read(addr, 4) == bytes(4)

    def test_an_all_zero_frame_stores_no_bytes(self):
        mem = make_mem()
        addr = mem.allocate_frame()
        mem.write(addr, b"junk")
        assert addr in mem._data
        mem.zero_frame(addr)
        assert addr not in mem._data

    def test_copy_of_a_zero_frame_drops_the_destination_bytes(self):
        mem = make_mem()
        src, dst = mem.allocate_frame(), mem.allocate_frame()
        mem.write(dst, b"stale")
        mem.copy_frame(src, dst)
        assert mem.read(dst, 5) == bytes(5)
        assert dst not in mem._data

    def test_a_free_frame_reads_zeros(self):
        mem = make_mem(frames=4)
        assert mem.read(3 * 4096 + 8, 4) == bytes(4)

    def test_copy_frame(self):
        mem = make_mem()
        src = mem.allocate_frame()
        dst = mem.allocate_frame()
        mem.write(src, b"payload")
        mem.copy_frame(src, dst)
        assert mem.read(dst, 7) == b"payload"

    def test_free_discards_contents(self):
        mem = make_mem(frames=1)
        addr = mem.allocate_frame()
        mem.write(addr, b"secret")
        mem.free_frame(addr)
        addr2 = mem.allocate_frame()
        assert addr2 == addr
        assert mem.read(addr2, 6) == bytes(6)
