"""The instrumentation bus: zero-cost when idle, consistent when not.

Four contracts from the observability redesign:

* the fault path allocates **zero** event objects while nobody is
  subscribed (the bus is pay-for-what-you-trace);
* counts of bus events, taken from a recorded stream by a test-only
  oracle, equal the kernel's :class:`KernelStats` fields (and
  ``pmap_system.shootdowns``) — so an emit site cannot drift from the
  counter it mirrors;
* the Chrome-trace exporter emits well-formed trace_event JSON with
  one lane per simulated CPU and properly nested
  fault → pager → disk spans;
* the legacy duck-typed hook attributes survive as deprecation shims
  that forward bus events with the old vocabulary.
"""

from __future__ import annotations

import json

import pytest

import repro.obs.bus as bus_mod
from repro.core import VMProt
from repro.fs.filesystem import FileSystem
from repro.ipc.message import Message
from repro.ipc.port import Port
from repro.obs import (
    EventBus,
    EventRecorder,
    build_spans,
    chrome_trace_json,
    profile,
    validate_chrome_trace,
)
from repro.pager.vnode_pager import map_file

PAGE = 4096


# ---------------------------------------------------------------------
# Bus mechanics
# ---------------------------------------------------------------------

class TestEventBus:

    def test_emit_returns_none_with_no_subscribers(self):
        bus = EventBus()
        assert bus.emit("vm", "fault") is None
        assert not bus.active

    def test_emit_delivers_to_subscribers(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        event = bus.emit("vm", "pagein", task="t0", object_id=3)
        assert event is not None
        assert seen == [event]
        assert event.name == "vm/pagein"
        assert event.data == {"object_id": 3}
        assert event.task == "t0"

    def test_subscribe_is_idempotent_unsubscribe_tolerant(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.subscribe(seen.append)
        bus.emit("a", "b")
        assert len(seen) == 1
        bus.unsubscribe(seen.append)
        bus.unsubscribe(seen.append)   # already gone: no error
        bus.emit("a", "b")
        assert len(seen) == 1

    def test_null_span_is_shared_when_inactive(self):
        bus = EventBus()
        assert bus.span("vm", "fault") is bus.span("pager", "call")

    def test_span_emits_b_e_pair_with_noted_outcome(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        with bus.span("vm", "fault", vaddr=0x1000) as span:
            span.note(zero_filled=True)
        begin, end = seen
        assert (begin.phase, end.phase) == ("B", "E")
        assert begin.data == {"vaddr": 0x1000}
        assert end.data == {"zero_filled": True}

    def test_span_records_escaping_exception_as_error(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        with pytest.raises(ValueError):
            with bus.span("pager", "call"):
                raise ValueError("boom")
        assert seen[-1].phase == "E"
        assert seen[-1].data["error"] == "ValueError"

    def test_track_override_stack(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit("a", "b")
        bus.push_track("daemon")
        bus.emit("a", "b")
        bus.pop_track()
        bus.emit("a", "b")
        assert [e.track for e in seen] == ["cpu0", "daemon", "cpu0"]

    def test_recorder_caps_and_counts_drops(self):
        bus = EventBus()
        recorder = EventRecorder(bus, capacity=2)
        for _ in range(5):
            bus.emit("a", "b")
        assert len(recorder.events) == 2
        assert recorder.dropped == 3
        recorder.detach()
        bus.emit("a", "b")
        assert len(recorder.events) == 2


# ---------------------------------------------------------------------
# Zero allocation on the untraced fault path
# ---------------------------------------------------------------------

class TestZeroAllocation:

    def _counting_event_class(self):
        class CountingEvent(bus_mod.Event):
            constructed = 0

            def __init__(self, *args, **kwargs):
                type(self).constructed += 1
                super().__init__(*args, **kwargs)

        return CountingEvent

    def test_fault_path_allocates_no_events_untraced(self, kernel,
                                                     monkeypatch):
        counting = self._counting_event_class()
        monkeypatch.setattr(bus_mod, "Event", counting)
        task = kernel.task_create(name="quiet")
        addr = task.vm_allocate(4 * kernel.page_size)
        for i in range(4):
            task.write(addr + i * kernel.page_size, b"x")
        child = task.fork()
        child.write(addr, b"y")
        assert counting.constructed == 0

    def test_same_path_allocates_once_subscribed(self, kernel,
                                                 monkeypatch):
        counting = self._counting_event_class()
        monkeypatch.setattr(bus_mod, "Event", counting)
        kernel.events.subscribe(lambda event: None)
        task = kernel.task_create(name="loud")
        addr = task.vm_allocate(kernel.page_size)
        task.write(addr, b"x")
        assert counting.constructed > 0


# ---------------------------------------------------------------------
# The emit-site oracle: recorded events vs. KernelStats
# ---------------------------------------------------------------------

#: event name -> the counter its emit site mirrors: a ``KernelStats``
#: field, or ``shootdowns`` for ``pmap_system.shootdowns``.
EMIT_COUNTERS = {
    "vm/fault": "faults",
    "vm/cow": "cow_faults",
    "vm/zero_fill": "zero_fill_count",
    "vm/pagein": "pageins",
    "pageout/laundered": "pageouts",
    "pageout/reactivate": "reactivations",
    "ipc/send": "messages_sent",
    "ipc/receive": "messages_received",
    "task/create": "tasks_created",
    "task/terminate": "tasks_terminated",
    "pmap/shootdown": "shootdowns",
}


def count_emits(events):
    """The emit-site oracle: counts of a recorded stream keyed by the
    counters they mirror, a span counted once at its begin."""
    counts = dict.fromkeys(EMIT_COUNTERS.values(), 0)
    for event in events:
        field = EMIT_COUNTERS.get(event.name)
        if field is not None and event.phase != "E":
            counts[field] += 1
    return counts


class TestMetricsConsistency:

    def test_derived_counters_equal_kernel_stats(self, tiny_kernel):
        kernel = tiny_kernel

        def counters():
            return dict(vars(kernel.stats),
                        shootdowns=kernel.pmap_system.shootdowns)

        before = counters()
        with EventRecorder(kernel.events) as recorder:
            parent = kernel.task_create(name="parent")
            addr = parent.vm_allocate(16 * kernel.page_size)
            for i in range(16):
                parent.write(addr + i * kernel.page_size, b"w")
            child = parent.fork()
            for i in range(8):
                child.write(addr + i * kernel.page_size, b"c")
            port = Port(name="metrics-port")
            message = Message(msgh_id=1).add_ool(addr, kernel.page_size)
            kernel.msg_send(parent, port, message)
            kernel.msg_receive(child, port)
            kernel.pageout_daemon.run(
                target=kernel.vm.resident.physmem.total_frames - 4)
            for i in range(16):
                parent.read(addr + i * kernel.page_size, 1)
            child.terminate()
        assert recorder.dropped == 0
        derived = count_emits(recorder.events)
        after = counters()
        for field, count in derived.items():
            actual = after[field] - before[field]
            assert count == actual, (
                f"{count} events for {field} but the kernel's counter "
                f"advanced by {actual}")
        # the workload must actually exercise the counters it checks
        for field in ("faults", "cow_faults", "pageins", "pageouts",
                      "messages_sent", "shootdowns"):
            assert derived[field] > 0, f"workload produced no {field}"


# ---------------------------------------------------------------------
# Exporters: Chrome trace and span reconstruction
# ---------------------------------------------------------------------

class TestExport:

    def test_chrome_trace_one_lane_per_cpu(self, smp_kernel):
        kernel = smp_kernel
        with EventRecorder(kernel.events) as recorder:
            task = kernel.task_create(name="roamer")
            addr = task.vm_allocate(4 * kernel.page_size)
            for cpu in range(4):
                kernel.set_current_cpu(cpu)
                task.write(addr + cpu * kernel.page_size, b"x")
            kernel.set_current_cpu(0)
        text = chrome_trace_json(recorder.events)
        assert validate_chrome_trace(text) == []
        records = json.loads(text)
        lanes = {r["args"]["name"] for r in records
                 if r["ph"] == "M" and r["name"] == "thread_name"}
        assert {"cpu0", "cpu1", "cpu2", "cpu3"} <= lanes

    def test_fault_nests_pager_call_and_disk_read(self, kernel):
        fs = FileSystem(kernel.machine, nbufs=8)
        fs.write("/obs/file", b"mach" * (kernel.page_size // 4))
        fs.buffer_cache.sync()   # dirty blocks would satisfy the
                                 # pager from cache, hiding the disk
        task = kernel.task_create(name="reader")
        with EventRecorder(kernel.events) as recorder:
            addr = map_file(kernel, task, fs, "/obs/file")
            task.read(addr, 4)
        roots = build_spans(recorder.events)
        faults = [s for s in roots if s.name == "vm/fault"]
        assert faults, "no fault span reconstructed"
        fault = faults[0]
        # The pager call nests under the fault's stage/shadow_walk
        # stage span (the telemetry layer's pipeline-stage taxonomy).
        walks = [c for c in fault.children
                 if c.name == "stage/shadow_walk"]
        assert walks, "fault span has no nested stage/shadow_walk"
        pager_calls = [c for c in walks[0].children
                       if c.name == "pager/call"]
        assert pager_calls, "shadow walk has no nested pager/call"
        disk_reads = [g for g in pager_calls[0].children
                      if g.name == "disk/read"]
        assert disk_reads, "pager/call span has no nested disk/read"
        assert (fault.start_us <= pager_calls[0].start_us
                <= disk_reads[0].start_us
                <= disk_reads[0].end_us <= fault.end_us)
        table = profile(roots)
        assert "vm/fault" in table and "span" in table

    def test_unmatched_end_events_are_dropped(self):
        bus = EventBus()
        recorder = EventRecorder(bus)
        bus.emit("vm", "fault", phase="E")   # attach happened mid-span
        bus.emit("vm", "fault", phase="B")
        bus.emit("vm", "fault", phase="E")
        recorder.detach()
        assert validate_chrome_trace(
            chrome_trace_json(recorder.events)) == []
        roots = build_spans(recorder.events)
        assert [s.name for s in roots] == ["vm/fault"]


# ---------------------------------------------------------------------
# Analysis observers attach through the bus (the retired duck-typed
# hooks — trace_hook / tick_hook / race_hook — no longer exist)
# ---------------------------------------------------------------------

class TestBusAttachment:

    def test_hook_attributes_are_gone(self, smp_kernel):
        cpu = smp_kernel.machine.boot_cpu
        assert not hasattr(type(cpu.tlb), "trace_hook")
        assert not hasattr(type(cpu), "tick_hook")
        assert not hasattr(type(smp_kernel.pmap_system), "race_hook")

    def test_race_detector_rides_the_bus(self, smp_kernel):
        from repro.analysis.race import RaceDetector
        detector = RaceDetector(smp_kernel).install()
        try:
            task = smp_kernel.task_create(name="raced")
            addr = task.vm_allocate(smp_kernel.page_size)
            task.write(addr, b"x")
            assert detector.events_timestamped > 0
        finally:
            detector.uninstall()
        # uninstall really unsubscribes: no further events observed
        count = detector.events_timestamped
        task.read(addr, 1)
        assert detector.events_timestamped == count
