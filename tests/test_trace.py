"""The event log: capture, analysis, clean detach.

:class:`~repro.obs.EventRecorder` is the one event log of a kernel: these
tests drive real workloads through it and check that faults, pageouts
and shootdowns are recorded with their payloads, on simulated time, on
the kernel they happened on, and that a detached recorder records
nothing.
"""

from collections import Counter

from repro.core.kernel import MachKernel
from repro.obs import EventRecorder, profile

from tests.conftest import make_spec

PAGE = 4096


def _names(recorder):
    """Event counts by name, counting a span once (at its begin)."""
    return Counter(e.name for e in recorder.events if e.phase != "E")


def _fault_ends(recorder):
    return [e for e in recorder.events
            if e.name == "vm/fault" and e.phase == "E"]


class TestCapture:
    def test_faults_recorded_with_kinds(self, kernel, task):
        with EventRecorder(kernel.events) as recorder:
            addr = task.vm_allocate(2 * PAGE)
            task.write(addr, b"one")
            child = task.fork()
            child.write(addr, b"two")
        ends = _fault_ends(recorder)
        assert any(e.data.get("zero_filled") for e in ends)
        assert any(e.data.get("cow_copied") for e in ends)
        assert _names(recorder)["vm/fault"] >= 2

    def test_pageout_events(self, tiny_kernel):
        kernel = tiny_kernel
        task = kernel.task_create()
        with EventRecorder(kernel.events) as recorder:
            addr = task.vm_allocate(60 * PAGE)
            for off in range(0, 60 * PAGE, PAGE):
                task.write(addr + off, b"p")
        launders = [e for e in recorder.events
                    if e.name == "pageout/launder" and e.phase == "B"]
        assert launders
        assert all("offset" in e.data and "object_id" in e.data
                   for e in launders)

    def test_shootdown_events(self, smp_kernel):
        kernel = smp_kernel
        task = kernel.task_create()
        with EventRecorder(kernel.events) as recorder:
            addr = task.vm_allocate(PAGE)
            task.write(addr, b"x")
            task.vm_deallocate(addr, PAGE)
        shootdowns = [e for e in recorder.events
                      if e.name == "pmap/shootdown"]
        assert len(shootdowns) >= 1
        assert all(e.data["start"] < e.data["end"] for e in shootdowns)

    def test_timestamps_are_simulated_and_ordered(self, kernel, task):
        with EventRecorder(kernel.events) as recorder:
            addr = task.vm_allocate(4 * PAGE)
            for off in range(0, 4 * PAGE, PAGE):
                task.write(addr + off, b"t")
        stamps = [e.ts_us for e in recorder.events]
        assert stamps == sorted(stamps)
        assert stamps[0] > 0

    def test_events_for_task(self, kernel):
        a = kernel.task_create(name="alpha")
        b = kernel.task_create(name="beta")
        with EventRecorder(kernel.events) as recorder:
            a.write(a.vm_allocate(PAGE), b"x")
            b.write(b.vm_allocate(PAGE), b"x")
        faults = Counter(e.task for e in _fault_ends(recorder))
        assert faults == {"alpha": 1, "beta": 1}

    def test_capacity_drops_excess(self, kernel, task):
        capped = EventRecorder(kernel.events, capacity=2)
        with EventRecorder(kernel.events) as everything:
            addr = task.vm_allocate(8 * PAGE)
            for off in range(0, 8 * PAGE, PAGE):
                task.write(addr + off, b"x")
        capped.detach()
        assert capped.events == everything.events[:2]
        assert capped.dropped == len(everything.events) - 2


class TestDetach:
    def test_uninstall_restores_behaviour(self, kernel, task):
        recorder = EventRecorder(kernel.events)
        recorder.detach()
        assert not kernel.events.active
        addr = task.vm_allocate(PAGE)
        task.write(addr, b"untraced")
        assert recorder.events == []

    def test_only_target_kernel_recorded(self):
        k1 = MachKernel(make_spec(name="traced"))
        k2 = MachKernel(make_spec(name="other"))
        t1 = k1.task_create()
        t2 = k2.task_create()
        with EventRecorder(k1.events) as recorder:
            t1.write(t1.vm_allocate(PAGE), b"x")
            t2.write(t2.vm_allocate(PAGE), b"x")
        assert not k2.events.active
        assert [e.task for e in _fault_ends(recorder)] == [t1.name]

    def test_double_install_is_safe(self, kernel, task):
        recorder = EventRecorder()
        recorder.attach(kernel.events)
        recorder.attach(kernel.events)
        task.write(task.vm_allocate(PAGE), b"x")
        recorder.detach()
        recorder.detach()
        assert not kernel.events.active
        assert _names(recorder)["vm/fault"] == 1


class TestAnalysis:
    def test_summary_renders(self, kernel, task):
        with EventRecorder(kernel.events) as recorder:
            task.write(task.vm_allocate(PAGE), b"x")
        text = profile(recorder.events)
        assert "self_us" in text
        assert "vm/fault" in text

    def test_event_str(self, kernel, task):
        with EventRecorder(kernel.events) as recorder:
            task.write(task.vm_allocate(PAGE), b"x")
        begin = next(e for e in recorder.events if e.name == "vm/fault")
        line = repr(begin)
        assert "vm/fault" in line and "us cpu0 B" in line
        assert f"task={task.name}" in line
