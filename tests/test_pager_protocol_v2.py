"""Pager protocol v2: batched scatter-gather requests, declared
capabilities, non-blocking faults, and hostile reply streams.

The redesign's contract, tested from four sides:

* :func:`normalize_reply` accepts every legal reply shape (flat bytes,
  UNAVAILABLE, scatter-gather ranges — partial, out of order,
  overlapping, holes) and rejects garbage with the fatal taxonomy;
* capabilities are declared up front (``PagerCapabilities``) with the
  centralized probe as the only fallback, and the conformance verifier
  catches phantom declarations and v1 signatures;
* the kernel's v2 serving path installs readahead pages, keeps
  4-argument v1 pagers working, parks faults while requests are in
  flight, and lends a stalled fault's CPU to other threads;
* the external-pager adapter survives hostile reply streams: duplicate
  ``pager_data_provided``, overlapping ranges, replies to retired
  request ids, replies before ``pager_init``, and
  ``pager_data_unavailable`` racing the kernel's retry timeout.
"""

import pytest

from repro.core.constants import VMProt
from repro.core.errors import (
    PagerDeadError,
    PagerGarbageError,
    PagerTimeoutError,
)
from repro.inject.pagers import FaultyPager, ScriptedPager, \
    StoreBackedPager
from repro.pager.base import ExternalPager, ExternalPagerAdapter
from repro.pager.protocol import (
    UNAVAILABLE,
    PagerCapabilities,
    capabilities_for,
    normalize_reply,
)
from tests.difftest.reference import one_page_request, \
    request_object_data_v1

PAGE = 4096


def _pattern(size: int) -> bytes:
    return bytes((off // PAGE) % 251 + 1 for off in range(size))


class TestNormalizeReply:
    def test_flat_bytes_pad_to_window(self):
        pages = normalize_reply(b"abc", 0, 2 * PAGE, PAGE)
        assert set(pages) == {0, PAGE}
        assert pages[0].startswith(b"abc")
        assert pages[0][3:] == bytes(PAGE - 3)
        assert pages[PAGE] == bytes(PAGE)

    def test_none_and_unavailable_mean_no_data(self):
        assert normalize_reply(None, 0, PAGE, PAGE) == {}
        assert normalize_reply(UNAVAILABLE, 0, PAGE, PAGE) == {}

    def test_partial_out_of_order_ranges(self):
        reply = [(2 * PAGE, b"C" * PAGE), (0, b"A" * PAGE)]
        pages = normalize_reply(reply, 0, 3 * PAGE, PAGE)
        assert set(pages) == {0, 2 * PAGE}     # page 1 genuinely absent
        assert pages[0] == b"A" * PAGE
        assert pages[2 * PAGE] == b"C" * PAGE

    def test_overlapping_ranges_first_wins(self):
        reply = [(0, b"1" * PAGE), (0, b"2" * PAGE)]
        pages = normalize_reply(reply, 0, PAGE, PAGE)
        assert pages[0] == b"1" * PAGE

    def test_coalesced_range_splits_per_page(self):
        reply = [(0, b"x" * (2 * PAGE + 5))]
        pages = normalize_reply(reply, 0, 3 * PAGE, PAGE)
        assert set(pages) == {0, PAGE, 2 * PAGE}
        assert pages[2 * PAGE] == b"x" * 5     # short tail stays short

    def test_unavailable_range_is_a_one_page_hole(self):
        reply = [(0, b"A" * PAGE), (PAGE, UNAVAILABLE)]
        pages = normalize_reply(reply, 0, 2 * PAGE, PAGE)
        assert pages[PAGE] is UNAVAILABLE

    def test_misaligned_range_left_pads_to_its_page(self):
        pages = normalize_reply([(PAGE + 8, b"zz")], 0, 2 * PAGE, PAGE)
        chunk = pages[PAGE]
        assert chunk[:8] == bytes(8) and chunk[8:10] == b"zz"

    def test_readahead_ranges_outside_window_kept(self):
        reply = [(0, b"A" * PAGE), (5 * PAGE, b"R" * PAGE)]
        pages = normalize_reply(reply, 0, PAGE, PAGE)
        assert pages[5 * PAGE] == b"R" * PAGE

    def test_garbage_reply_raises_fatal(self):
        with pytest.raises(PagerGarbageError):
            normalize_reply(12345, 0, PAGE, PAGE)
        with pytest.raises(PagerGarbageError):
            normalize_reply([(0, 3.14)], 0, PAGE, PAGE)
        with pytest.raises(PagerGarbageError):
            normalize_reply([(0,)], 0, PAGE, PAGE)


class TestCapabilities:
    def test_declared_capabilities_win(self):
        caps = capabilities_for(StoreBackedPager(b"x"))
        assert caps.has_data and caps.readahead
        assert not caps.move_slots

    def test_adhoc_pager_is_probed(self):
        class AdHoc:
            transfer_size = 2 * PAGE

            def data_request(self, obj, offset, length, access):
                return UNAVAILABLE

            def data_write(self, obj, offset, data):
                pass

            def has_data(self, obj, offset):
                return False

        caps = capabilities_for(AdHoc())
        assert caps.has_data and caps.transfer_size == 2 * PAGE
        assert not (caps.readahead or caps.lock_value_for)

    def test_wrapping_pagers_expose_inner_capabilities(self):
        wrapped = FaultyPager(StoreBackedPager(b"x"), injector=None)
        assert wrapped.capabilities == capabilities_for(
            StoreBackedPager(b"x"))

    def test_conformance_flags_phantom_capability(self):
        from repro.analysis.conformance import verify_pager_class
        from repro.pager.protocol import PagerProtocol

        class Phantom(PagerProtocol):
            capabilities = PagerCapabilities(has_slot=True)

            def data_request(self, obj, offset, length, access,
                             readahead_hint=0):
                return UNAVAILABLE

            def data_write(self, obj, offset, data):
                pass

            def name(self):
                return "phantom"

        rules = {f.rule for f in verify_pager_class("phantom", Phantom)}
        assert "phantom-capability" in rules

    def test_conformance_flags_v1_signature(self):
        from repro.analysis.conformance import verify_pager_class
        from repro.pager.protocol import PagerProtocol

        class OldStyle(PagerProtocol):
            def data_request(self, obj, offset, length, access):
                return UNAVAILABLE

            def data_write(self, obj, offset, data):
                pass

            def name(self):
                return "old"

        (finding,) = [f for f in verify_pager_class("old", OldStyle)
                      if f.where == "OldStyle.data_request"]
        assert finding.rule == "signature-mismatch"
        assert "readahead_hint" in finding.message

    def test_conformance_flags_hint_without_default(self):
        from repro.analysis.conformance import verify_pager_class
        from repro.pager.protocol import PagerProtocol

        class HintRequired(PagerProtocol):
            def data_request(self, obj, offset, length, desired_access,
                             readahead_hint):
                return UNAVAILABLE

            def data_write(self, obj, offset, data):
                pass

        (finding,) = verify_pager_class("hint", HintRequired)
        assert finding.rule == "signature-mismatch"
        assert "'readahead_hint' has no default" in finding.message

    def test_registered_pagers_conform(self):
        from repro.analysis.conformance import verify_pager_conformance
        assert verify_pager_conformance() == []


class TestV2ServingPath:
    def test_readahead_installs_extra_pages(self, kernel):
        task = kernel.task_create()
        kernel.readahead_pages = 3
        pager = StoreBackedPager(_pattern(6 * PAGE))
        addr = kernel.vm_allocate_with_pager(task, 6 * PAGE, pager)
        assert task.read(addr, 1) == _pattern(1)
        assert kernel.stats.readahead_pageins >= 1
        # The readahead pages are genuinely resident: later reads are
        # soft faults, not pager round trips.
        obj = task.vm_map.lookup_entry(addr)[1].vm_object
        assert kernel.vm.resident.lookup(obj, PAGE) is not None

    def test_readahead_off_by_default(self, kernel):
        task = kernel.task_create()
        assert kernel.readahead_pages == 0
        pager = StoreBackedPager(_pattern(4 * PAGE))
        addr = kernel.vm_allocate_with_pager(task, 4 * PAGE, pager)
        assert task.read(addr, 1) == _pattern(1)
        assert kernel.stats.readahead_pageins == 0

    def test_v1_signature_pager_still_served(self, kernel):
        calls = []

        class FourArg:
            def data_request(self, obj, offset, length, access):
                calls.append((offset, length))
                return b"V" * length

            def data_write(self, obj, offset, data):
                pass

        task = kernel.task_create()
        kernel.readahead_pages = 4   # hint must NOT reach this pager
        addr = kernel.vm_allocate_with_pager(task, 2 * PAGE, FourArg())
        assert task.read(addr, 3) == b"VVV"
        assert calls == [(0, PAGE)]

    def test_v1_shim_matches_v2_without_readahead(self, kernel):
        content = _pattern(2 * PAGE)
        task = kernel.task_create()
        a1 = kernel.vm_allocate_with_pager(task, 2 * PAGE,
                                           StoreBackedPager(content))
        a2 = kernel.vm_allocate_with_pager(task, 2 * PAGE,
                                           StoreBackedPager(content))
        obj1 = task.vm_map.lookup_entry(a1)[1].vm_object
        obj2 = task.vm_map.lookup_entry(a2)[1].vm_object
        p1 = kernel.request_object_data(obj1, PAGE)
        p2 = request_object_data_v1(kernel, obj2, PAGE)
        assert kernel.machine.physmem.read(p1.phys_addr, PAGE) \
            == kernel.machine.physmem.read(p2.phys_addr, PAGE)

    def test_one_page_request_flattens_scatter_gather(self):
        pager = StoreBackedPager(_pattern(2 * PAGE))
        data = one_page_request(pager, None, 0, PAGE, VMProt.READ, PAGE)
        assert data == _pattern(PAGE)
        empty = one_page_request(StoreBackedPager(b""), None, 0, PAGE,
                                 VMProt.READ, PAGE)
        assert empty is UNAVAILABLE

    def test_faults_park_while_request_in_flight(self, kernel):
        observed = []

        class Peeking(StoreBackedPager):
            def data_request(self, obj, offset, length, access,
                             readahead_hint=0):
                observed.append({oid: [dict(e) for e in q] for oid, q
                                 in kernel.pending_faults.items()})
                return super().data_request(obj, offset, length,
                                            access, readahead_hint)

        task = kernel.task_create()
        pager = Peeking(_pattern(PAGE))
        addr = kernel.vm_allocate_with_pager(task, PAGE, pager)
        task.read(addr, 1)
        obj = task.vm_map.lookup_entry(addr)[1].vm_object
        assert observed and observed[0][obj.object_id][0]["offset"] == 0
        assert kernel.pending_faults == {}    # unparked afterwards
        assert kernel.stats.faults_parked >= 1

    def test_stall_then_unavailable_zero_fills(self, kernel):
        # A transient stall, then an honest "no data": the fault pays
        # the backoff on the simulated clock and degrades to zero fill
        # — never a hang, never a dead pager.
        class NoData:
            def data_request(self, obj, offset, length, access,
                             readahead_hint=0):
                return UNAVAILABLE

            def data_write(self, obj, offset, data):
                pass

            def name(self):
                return "nodata"

        task = kernel.task_create()
        pager = ScriptedPager(NoData(), ["stall"])
        addr = kernel.vm_allocate_with_pager(task, PAGE, pager)
        before = kernel.clock.now_us
        assert task.read(addr, 4) == bytes(4)
        assert kernel.clock.now_us - before >= kernel.pager_timeout_us
        obj = task.vm_map.lookup_entry(addr)[1].vm_object
        assert not obj.pager_dead


class TestBorrowedPagerWaits:
    def _run(self, kernel, serialize: bool):
        from repro.sched.scheduler import Scheduler

        sched = Scheduler(kernel)
        if serialize:
            kernel.scheduler = None   # pre-v2: backoff idles the CPU
        content = _pattern(2 * PAGE)
        reader_task = kernel.task_create(name="reader")
        pager = ScriptedPager(StoreBackedPager(content),
                              ["stall", "ok", "stall", "ok"])
        addr = kernel.vm_allocate_with_pager(reader_task, 2 * PAGE,
                                             pager)
        got = []

        def reader(ctx):
            got.append(ctx.read(addr, 4))
            yield
            got.append(ctx.read(addr + PAGE, 4))

        def filler(task):
            def body(ctx):
                a = task.vm_allocate(PAGE)
                ctx.write(a, b"f")
                yield
            return body

        sched.spawn(reader_task, reader, name="reader")
        for j in range(4):
            task = kernel.task_create(name=f"fill{j}")
            sched.spawn(task, filler(task), name=f"fill{j}")
        sched.run()
        assert got == [content[:4], content[PAGE:PAGE + 4]]
        return sched

    def test_backoff_lends_cpu_to_ready_threads(self, kernel):
        self._run(kernel, serialize=False)
        assert kernel.stats.tasks_completed_during_pager_wait > 0
        assert kernel.pending_faults == {}

    def test_serialized_control_idles_instead(self, kernel):
        self._run(kernel, serialize=True)
        assert kernel.stats.tasks_completed_during_pager_wait == 0

    def test_wait_depth_restored_after_run(self, kernel):
        sched = self._run(kernel, serialize=False)
        assert sched._wait_depth == 0


class _RecordingPager(ExternalPager):
    """Answers nothing; remembers the request ids the kernel used."""

    def __init__(self):
        self.request_ids = []

    def pager_data_request(self, kernel_if, obj, offset, length,
                           access):
        self.request_ids.append(kernel_if.current_request_id)


class TestHostileReplyStreams:
    def test_duplicate_data_provided_drained(self, kernel):
        class Stutter(ExternalPager):
            def pager_data_request(self, kernel_if, obj, offset,
                                   length, access):
                kernel_if.pager_data_provided(offset, b"1" * length)
                kernel_if.pager_data_provided(offset, b"2" * length)

        task = kernel.task_create()
        adapter = ExternalPagerAdapter(Stutter(), kernel=kernel)
        addr = kernel.vm_allocate_with_pager(task, PAGE, adapter)
        assert task.read(addr, 4) == b"1111"     # first reply wins
        assert adapter.duplicate_replies >= 1

    def test_overlapping_ranges_first_wins(self, kernel):
        class Overlapper(ExternalPager):
            def pager_data_request(self, kernel_if, obj, offset,
                                   length, access):
                kernel_if.pager_data_provided_ranges(
                    [(offset, b"A" * length), (offset, b"B" * length)])

        task = kernel.task_create()
        adapter = ExternalPagerAdapter(Overlapper(), kernel=kernel)
        addr = kernel.vm_allocate_with_pager(task, PAGE, adapter)
        assert task.read(addr, 4) == b"AAAA"
        assert adapter.duplicate_replies >= 1

    def test_out_of_order_scatter_gather_reply(self, kernel):
        round_trips = []

        class Backwards(ExternalPager):
            def pager_data_request(self, kernel_if, obj, offset,
                                   length, access):
                round_trips.append(offset)
                end = offset + length + kernel_if.readahead_hint
                ranges = [(off, _pattern(end)[off:off + PAGE])
                          for off in range(offset, end, PAGE)]
                kernel_if.pager_data_provided_ranges(ranges[::-1])

        task = kernel.task_create()
        kernel.readahead_pages = 2
        adapter = ExternalPagerAdapter(Backwards(), kernel=kernel)
        addr = kernel.vm_allocate_with_pager(task, 4 * PAGE, adapter)
        assert task.read(addr, 2) == _pattern(2)
        # The hinted pages were buffered adapter-side: the next fault's
        # window is served from that buffer, no second round trip.
        assert task.read(addr + PAGE, 2) == _pattern(4 * PAGE)[
            PAGE:PAGE + 2]
        assert round_trips == [0]
        assert adapter.requests == 2

    def test_reply_to_retired_request_id_is_stale(self, kernel):
        mute = _RecordingPager()
        task = kernel.task_create()
        adapter = ExternalPagerAdapter(mute, kernel=kernel)
        addr = kernel.vm_allocate_with_pager(task, PAGE, adapter)
        with pytest.raises(PagerTimeoutError):
            task.read(addr, 1)
        retired = mute.request_ids[0]
        assert retired in adapter._retired
        # The answer finally shows up — after the kernel gave up.
        adapter.kernel_if.pager_data_provided(0, b"late" * 1024,
                                              request_id=retired)
        adapter._pump_ports()
        assert adapter.stale_replies == 1
        assert adapter._provided == {}        # nothing buffered

    def test_data_unavailable_racing_timeout(self, kernel):
        mute = _RecordingPager()
        task = kernel.task_create()
        adapter = ExternalPagerAdapter(mute, kernel=kernel)
        addr = kernel.vm_allocate_with_pager(task, PAGE, adapter)
        with pytest.raises(PagerTimeoutError):
            task.read(addr, 1)
        adapter.kernel_if.pager_data_unavailable(
            0, PAGE, request_id=mute.request_ids[0])
        adapter._pump_ports()
        assert adapter.stale_replies == 1
        # The object degraded per dead-pager policy; the late
        # unavailable did not resurrect or corrupt it.
        with pytest.raises(PagerDeadError):
            task.read(addr, 1)

    def test_reply_before_init_rejected(self):
        adapter = ExternalPagerAdapter(_RecordingPager())
        adapter.kernel_if.pager_data_provided(0, b"\0" * 16,
                                              request_id=0)
        adapter._pump_ports()
        assert adapter.rejected_before_init == 1
        assert adapter._provided == {}

    def test_unsolicited_prefetch_push_is_consumed(self, kernel):
        round_trips = []

        class Pusher(ExternalPager):
            def pager_init(self, kernel_if, obj, name_port):
                # Push page 1 before any request (request_id=0).
                kernel_if.pager_data_provided(PAGE, b"P" * PAGE,
                                              request_id=0)

            def pager_data_request(self, kernel_if, obj, offset,
                                   length, access):
                round_trips.append(offset)
                kernel_if.pager_data_provided(offset, b"Q" * length)

        task = kernel.task_create()
        adapter = ExternalPagerAdapter(Pusher(), kernel=kernel)
        addr = kernel.vm_allocate_with_pager(task, 2 * PAGE, adapter)
        # Page 1 is served from the prefetch buffer without a new
        # pager_data_request round trip.
        assert task.read(addr + PAGE, 4) == b"PPPP"
        assert round_trips == []
        assert adapter.requests == 1

    def test_timeout_under_injected_stalls(self, kernel):
        # repro.inject drives the same race at the kernel layer: every
        # request stalls, the retry budget exhausts, and the pager is
        # declared dead — the fault raises, never hangs.
        from repro.inject.injector import FaultConfig, FaultInjector

        injector = FaultInjector(seed=0x7E57,
                                 config=FaultConfig(pager_stall=1.0))
        pager = FaultyPager(StoreBackedPager(_pattern(PAGE)), injector)
        task = kernel.task_create()
        addr = kernel.vm_allocate_with_pager(task, PAGE, pager)
        before = kernel.clock.now_us
        with injector.armed(), pytest.raises(PagerTimeoutError):
            task.read(addr, 1)
        # All three backoffs were charged to the simulated clock.
        assert kernel.clock.now_us - before >= 7 * kernel.pager_timeout_us
        obj = task.vm_map.lookup_entry(addr)[1].vm_object
        assert obj.pager_dead
