"""Internal pagers: default/swap, vnode (mapped files), network
memory."""

import pytest

from repro.core.constants import VMProt
from repro.core.errors import ResourceShortageError
from repro.fs.filesystem import FileSystem
from repro.pager.default_pager import DefaultPager
from repro.pager.netmemory import NetMemoryServer, map_remote_region
from repro.pager.protocol import UNAVAILABLE
from repro.pager.swap import FileBackedSwap, SwapSpace
from repro.pager.vnode_pager import map_file, vnode_pager_for

PAGE = 4096


class FakeObj:
    def __init__(self, object_id, size=16 * PAGE):
        self.object_id = object_id
        self.size = size
        self._resident = {}

    def resident_page(self, offset):
        return self._resident.get(offset)


class TestSwapSpace:
    def test_write_read_slot(self, kernel):
        swap = SwapSpace(kernel.machine, total_slots=4)
        slot = swap.write_slot(b"swapped")
        assert swap.read_slot(slot)[:7] == b"swapped"

    def test_slot_reuse(self, kernel):
        swap = SwapSpace(kernel.machine, total_slots=4)
        slot = swap.write_slot(b"v1")
        same = swap.write_slot(b"v2", slot)
        assert same == slot
        assert swap.slots_used == 1
        assert swap.read_slot(slot)[:2] == b"v2"

    def test_exhaustion(self, kernel):
        swap = SwapSpace(kernel.machine, total_slots=1)
        swap.write_slot(b"a")
        with pytest.raises(ResourceShortageError):
            swap.write_slot(b"b")

    def test_free_slot(self, kernel):
        swap = SwapSpace(kernel.machine, total_slots=1)
        slot = swap.write_slot(b"a")
        swap.free_slot(slot)
        assert swap.slots_free == 1

    def test_transfers_charge_elapsed(self, kernel):
        swap = SwapSpace(kernel.machine, total_slots=2)
        snap = kernel.clock.snapshot()
        swap.write_slot(b"x")
        _, elapsed = snap.interval()
        assert elapsed > 0


class TestSwapSlotPool:
    """Both swap kinds hand slots out 0, 1, 2 ... and reuse a returned
    slot (freed, or refunded by a failed write) last-returned first."""

    @pytest.fixture(params=["standalone", "file"])
    def swap(self, request, kernel):
        if request.param == "standalone":
            return SwapSpace(kernel.machine, total_slots=4)
        return FileBackedSwap(FileSystem(kernel.machine), PAGE,
                              total_slots=4)

    def test_slots_come_out_in_ascending_order(self, swap):
        assert [swap.write_slot(b"x") for _ in range(4)] == [0, 1, 2, 3]

    def test_returned_slots_are_reused_first(self, swap, monkeypatch):
        for _ in range(3):
            swap.write_slot(b"x")
        swap.free_slot(0)
        swap.free_slot(2)
        assert swap.write_slot(b"y") == 2
        with monkeypatch.context() as patch:
            if isinstance(swap, FileBackedSwap):
                patch.setattr(swap.fs, "write_direct", _disk_error)
            else:
                patch.setattr(swap, "_charge_transfer", _disk_error)
            with pytest.raises(OSError):
                swap.write_slot(b"lost")
        assert swap.slots_free == 2
        assert [swap.write_slot(b"z") for _ in range(2)] == [0, 3]

    def test_slots_free_is_exact_through_exhaustion(self, swap):
        assert (swap.slots_free, swap.slots_used) == (4, 0)
        slots = [swap.write_slot(b"x") for _ in range(3)]
        swap.free_slot(slots[1])
        assert (swap.slots_free, swap.slots_used) == (2, 2)
        swap.write_slot(b"x")
        swap.write_slot(b"x")
        assert (swap.slots_free, swap.slots_used) == (0, 4)
        with pytest.raises(ResourceShortageError):
            swap.write_slot(b"full")
        assert swap.slots_free == 0
        swap.free_slot(3)
        assert swap.slots_free == 1
        assert swap.write_slot(b"x") == 3


def _disk_error(*args, **kwargs):
    raise OSError("disk error")


class TestDefaultPager:
    def test_unknown_region_unavailable(self, kernel):
        pager = DefaultPager(SwapSpace(kernel.machine))
        obj = FakeObj(1)
        assert pager.data_request(obj, 0, PAGE,
                                  VMProt.READ) is UNAVAILABLE
        assert not pager.has_data(obj, 0)

    def test_write_then_read(self, kernel):
        pager = DefaultPager(SwapSpace(kernel.machine))
        obj = FakeObj(1)
        pager.data_write(obj, PAGE, b"stored")
        assert pager.has_slot(obj, PAGE)
        assert pager.data_request(obj, PAGE, PAGE,
                                  VMProt.READ)[:6] == b"stored"

    def test_move_slots_shifts_offsets(self, kernel):
        pager = DefaultPager(SwapSpace(kernel.machine))
        src, dst = FakeObj(1), FakeObj(2)
        pager.data_write(src, 3 * PAGE, b"migrant")
        pager.move_slots(src, dst, delta=2 * PAGE)
        assert not pager.has_slot(src, 3 * PAGE)
        assert pager.has_slot(dst, PAGE)
        assert pager.data_request(dst, PAGE, PAGE,
                                  VMProt.READ)[:7] == b"migrant"

    def test_move_slots_destination_wins(self, kernel):
        pager = DefaultPager(SwapSpace(kernel.machine))
        src, dst = FakeObj(1), FakeObj(2)
        pager.data_write(src, 0, b"older")
        pager.data_write(dst, 0, b"newer")
        pager.move_slots(src, dst, delta=0)
        assert pager.data_request(dst, 0, PAGE,
                                  VMProt.READ)[:5] == b"newer"

    def test_release_frees_slots(self, kernel):
        swap = SwapSpace(kernel.machine, total_slots=2)
        pager = DefaultPager(swap)
        obj = FakeObj(1)
        pager.data_write(obj, 0, b"x")
        pager.release_object(obj)
        assert swap.slots_used == 0


class TestVnodePager:
    @pytest.fixture
    def fs(self, kernel):
        fs = FileSystem(kernel.machine)
        fs.write("/file", b"ABCDEFGH" * 2048)      # 16 KB
        return fs

    def test_map_and_read(self, kernel, task, fs):
        addr = map_file(kernel, task, fs, "/file")
        assert task.read(addr, 8) == b"ABCDEFGH"
        assert task.read(addr + 8192, 8) == b"ABCDEFGH"

    def test_write_through_mapping_then_pageout(self, kernel, task, fs):
        addr = map_file(kernel, task, fs, "/file")
        task.write(addr, b"MODIFIED")
        kernel.pageout_daemon.run(
            target=kernel.vm.resident.physmem.total_frames)
        assert fs.read("/file", 0, 8) == b"MODIFIED"

    def test_object_cache_makes_remap_free(self, kernel, task, fs):
        addr = map_file(kernel, task, fs, "/file")
        task.read(addr, 16 * 1024)
        reads_before = fs.disk.reads
        task.vm_deallocate(addr, 16 * 1024)
        addr2 = map_file(kernel, task, fs, "/file")
        assert task.read(addr2, 8) == b"ABCDEFGH"
        assert fs.disk.reads == reads_before
        assert kernel.vm.objects.cache_hits >= 1

    def test_shared_mapping_between_tasks(self, kernel, fs):
        a = kernel.task_create()
        b = kernel.task_create()
        addr_a = map_file(kernel, a, fs, "/file")
        addr_b = map_file(kernel, b, fs, "/file")
        # Same memory object: one task's write is the other's read.
        a.write(addr_a, b"SHARED!!")
        assert b.read(addr_b, 8) == b"SHARED!!"

    def test_pager_memoized_per_inode(self, fs):
        assert vnode_pager_for(fs, "/file") is \
            vnode_pager_for(fs, "/file")

    def test_eof_page_zero_padded(self, kernel, task, fs):
        fs.write("/short", b"end")
        addr = map_file(kernel, task, fs, "/short", size=PAGE)
        assert task.read(addr, 5) == b"end\x00\x00"


class TestNetMemory:
    def test_copy_on_reference(self, kernel, task):
        server = NetMemoryServer()
        server.create_region("region", 8 * PAGE, b"REMOTE-DATA")
        addr = map_remote_region(kernel, task, server, "region")
        assert server.fetches == 0                  # nothing moved yet
        assert task.read(addr, 11) == b"REMOTE-DATA"
        assert server.fetches == 1                  # one page, on touch

    def test_only_referenced_pages_travel(self, kernel, task):
        server = NetMemoryServer()
        server.create_region("big", 32 * PAGE)
        addr = map_remote_region(kernel, task, server, "big")
        task.read(addr, 1)
        task.read(addr + 5 * PAGE, 1)
        assert server.fetches == 2

    def test_writeback_reaches_master(self, kernel, task):
        server = NetMemoryServer()
        server.create_region("rw", PAGE)
        addr = map_remote_region(kernel, task, server, "rw")
        task.write(addr, b"dirty-page")
        kernel.pageout_daemon.run(
            target=kernel.vm.resident.physmem.total_frames)
        assert server.region_bytes("rw")[:10] == b"dirty-page"

    def test_network_charges_elapsed_time(self, kernel, task):
        server = NetMemoryServer(latency_us=5000.0)
        server.create_region("slow", PAGE)
        addr = map_remote_region(kernel, task, server, "slow")
        snap = kernel.clock.snapshot()
        task.read(addr, 1)
        _, elapsed = snap.interval()
        assert elapsed >= 5000.0

    def test_duplicate_region_rejected(self):
        server = NetMemoryServer()
        server.create_region("x", PAGE)
        with pytest.raises(ValueError):
            server.create_region("x", PAGE)
