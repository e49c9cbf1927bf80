"""The bus's fault-stage ledger against its pinned reference.

:class:`~repro.obs.FaultTelemetry` reads the ledger the
:class:`~repro.obs.EventBus` keeps in place on every span edge.  These
tests record the same attach windows with an
:class:`~repro.obs.EventRecorder`, replay them through
:class:`tests.telemetry_reference.ReferenceTelemetry` (the attribution
as it stood when telemetry was an ``Event`` subscriber) and require
equal reports, outside-fault time and worst-fault logs — each worst
fault's events and ``truncated`` flag included:

* the quick storm and pager-storm cells on all six pmaps;
* the edge cases: attach mid-span, a trap-raising ``mmu_probe``,
  nested faults, cap truncation, and detach/re-attach.

Plus the contracts that make the ledger cheap and its output
reproducible: a telemetry-only storm constructs no ``Event`` until the
worst-fault trace is asked for, instants fire only while someone
records them, ``stage()`` hands out one reusable span per stage, and
the worst-fault Chrome trace is identical for identical runs.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro.bench.storm as storm_mod
import repro.obs.bus as bus_mod
import repro.obs.telemetry as telemetry_mod
from repro.bench.storm import QUICK_LOAD, run_pager_storm, run_storm
from repro.bench.testing import BENCH_ARCHS
from repro.core.constants import FaultType
from repro.core.errors import PageFault
from repro.obs import (
    EventBus,
    EventRecorder,
    FaultTelemetry,
    chrome_trace,
    validate_chrome_trace,
)
from tests.telemetry_reference import ReferenceTelemetry

CAP = bus_mod.FAULT_EVENT_CAP
SRC = Path(__file__).resolve().parent.parent / "src"


def _event_view(event):
    return (event.ts_us, event.cpu, event.track, event.phase,
            event.subsystem, event.kind, event.task, event.data)


def _worst_view(worst):
    return [(info["latency_us"], info["task"], info["vaddr"],
             info["track"], info["stage_us"], info["truncated"],
             [_event_view(event) for event in info["events"]])
            for info in worst]


def _shape(worst):
    return [(info["latency_us"], info["vaddr"], info["track"],
             info["stage_us"], info["truncated"],
             [_event_view(event)[:6] for event in info["events"]])
            for info in worst]


def assert_matches_reference(live, windows, keep_worst=8):
    """*live* (detached) equals the reference fed the recorded
    *windows*, one event list per attach window."""
    reference = ReferenceTelemetry(keep_worst=keep_worst)
    for events in windows:
        reference.feed(events)
    assert live.report() == reference.report()
    assert live.outside_us == reference.outside_us
    assert _worst_view(live.worst_faults()) == \
        _worst_view(reference.worst_faults())


class _Recorded(FaultTelemetry):
    """A live telemetry that also records its attach window."""

    def attach(self, bus):
        super().attach(bus)
        self.recorder = EventRecorder(self._bus, capacity=10 ** 7)
        return self

    def detach(self):
        self.recorder.detach()
        assert not self.recorder.dropped
        super().detach()


# ---------------------------------------------------------------------
# Storm cells: live ledger == reference, and == a telemetry-only run
# ---------------------------------------------------------------------

CELLS = {
    "storm": lambda arch: run_storm(arch, *QUICK_LOAD),
    "pager": lambda arch: run_pager_storm(arch, *QUICK_LOAD),
}


@pytest.mark.parametrize("arch", sorted(BENCH_ARCHS))
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_storm_cell_matches_reference(monkeypatch, cell, arch):
    plain_report, plain = CELLS[cell](arch)
    monkeypatch.setattr(storm_mod, "FaultTelemetry", _Recorded)
    report, live = CELLS[cell](arch)
    assert live.report()["faults"] > 0
    assert_matches_reference(live, [live.recorder.events])
    # With nobody but the telemetry listening, instants outside faults
    # never reach the ledger: the attribution must not notice.  (Task
    # names and object ids count up per process, so the second run's
    # differ.)
    assert plain_report == report
    assert _shape(plain.worst_faults()) == _shape(live.worst_faults())


# ---------------------------------------------------------------------
# Edge cases on a standalone bus
# ---------------------------------------------------------------------

class _Clock:
    def __init__(self) -> None:
        self.elapsed_us = 0.0

    def tick(self, us: float) -> None:
        self.elapsed_us += us


class _Trap(Exception):
    pass


@pytest.fixture
def bus():
    return EventBus(_Clock())


def _attach(bus, keep_worst=8):
    return _Recorded(keep_worst=keep_worst).attach(bus)


def _fault(bus, task="t0", vaddr=0x1000):
    return bus.span("vm", "fault", task=task, vaddr=vaddr,
                    fault_type="READ")


def test_attach_mid_span(bus):
    clock = bus.clock
    bus.subscribe(lambda event: None)       # spans are live before
    fault = _fault(bus)
    walk = bus.span("stage", "shadow_walk")
    fault.__enter__()
    walk.__enter__()
    clock.tick(5)
    live = _attach(bus)
    with bus.stage("zero_fill"):
        clock.tick(2)
    walk.__exit__(None, None, None)
    clock.tick(1)
    fault.__exit__(None, None, None)
    with _fault(bus, vaddr=0x2000):
        with bus.stage("map_lookup"):
            clock.tick(4)
    live.detach()
    assert live.outside_us == {"zero_fill": 2.0}
    assert live.report()["faults"] == 1
    assert_matches_reference(live, [live.recorder.events])


def test_trap_raising_probe(bus):
    clock = bus.clock
    live = _attach(bus)
    with pytest.raises(_Trap):
        with bus.stage("mmu_probe"):
            clock.tick(3)
            raise _Trap
    with _fault(bus):
        with bus.stage("map_lookup"):
            clock.tick(1)
    with pytest.raises(_Trap):          # a trap whose fault never opens
        with bus.stage("mmu_probe"):
            clock.tick(7)
            raise _Trap
    live.detach()
    assert live.worst_faults()[0]["stage_us"] == {"mmu_probe": 3.0,
                                                 "map_lookup": 1.0}
    assert live.outside_us == {"mmu_probe": 7.0}
    assert_matches_reference(live, [live.recorder.events])


def test_trap_raising_probes_on_a_kernel(kernel):
    live = _attach(kernel.events)
    page = kernel.page_size
    task = kernel.task_create(name="probe")
    addr = task.vm_allocate(4 * page)
    for off in range(0, 4 * page, page):
        task.write(addr + off, b"w")
    child = task.fork(name="probe-child")
    for off in range(0, 4 * page, page):
        child.write(addr + off, b"c")
        task.pmap.forget(addr + off)
        task.read(addr + off, 1)
    kernel.fault_batch(task, addr, 4, FaultType.READ)
    live.detach()
    assert any(event.kind == "mmu_probe" and event.data.get("error")
               for event in live.recorder.events)
    assert_matches_reference(live, [live.recorder.events])


def test_nested_faults(bus):
    clock = bus.clock
    live = _attach(bus)
    with _fault(bus):
        with bus.stage("shadow_walk"):
            clock.tick(1)
            with bus.span("pager", "call", op="data_request"):
                clock.tick(2)
                with _fault(bus, task="pager", vaddr=0x9000):
                    with bus.stage("zero_fill"):
                        clock.tick(4)
                    bus.emit("vm", "zero_fill", object_id=1)
                clock.tick(1)
        with bus.span("pmap", "enter", vaddr=0x1000):
            clock.tick(2)
    live.detach()
    outer, inner = live.worst_faults()
    assert (outer["latency_us"], inner["latency_us"]) == (10.0, 4.0)
    assert outer["stage_us"] == {"shadow_walk": 1.0, "pager_wait": 3.0,
                                 "pmap_enter": 2.0}
    # The nested fault's records are the parent's too, and export once.
    shared = {id(event) for event in outer["events"]} \
        & {id(event) for event in inner["events"]}
    assert len(shared) == len(inner["events"])
    assert validate_chrome_trace(live.worst_chrome_trace()) == []
    assert_matches_reference(live, [live.recorder.events])


def test_cap_truncation_with_nested_faults(bus):
    clock = bus.clock
    live = _attach(bus, keep_worst=4)
    with _fault(bus, vaddr=0x1000):
        for _ in range(CAP - 5):
            bus.emit("tlb", "hit", tag=1, vpn=2)
        clock.tick(1)
        with _fault(bus, vaddr=0x2000):         # straddles the cap
            for _ in range(20):
                bus.emit("tlb", "hit", tag=1, vpn=3)
            clock.tick(2)
        for _ in range(CAP):
            bus.emit("tlb", "hit", tag=1, vpn=4)
        with _fault(bus, vaddr=0x3000):         # opens once full
            for _ in range(10):
                bus.emit("tlb", "fill", tag=1, vpn=5)
            with bus.stage("map_lookup"):
                clock.tick(3)
        clock.tick(1)
    live.detach()
    truncated = {info["vaddr"]: (info["truncated"], len(info["events"]))
                 for info in live.worst_faults()}
    assert truncated == {0x1000: (True, CAP), 0x2000: (False, 22),
                         0x3000: (False, 14)}
    assert_matches_reference(live, [live.recorder.events], keep_worst=4)


def test_detach_and_reattach(bus):
    clock = bus.clock
    live = _attach(bus)
    with _fault(bus, vaddr=0x1000):
        with bus.stage("map_lookup"):
            clock.tick(2)
    fault = _fault(bus, vaddr=0x2000)
    fault.__enter__()
    with pytest.raises(_Trap):
        with bus.stage("mmu_probe"):
            clock.tick(1)
            raise _Trap
    first = live.recorder.events
    live.detach()                       # mid-fault: the ledger drops
    assert not bus.active
    clock.tick(3)
    fault.__exit__(None, None, None)
    with _fault(bus, vaddr=0x3000):     # nobody listening
        clock.tick(9)
    live.attach(bus)
    with _fault(bus, vaddr=0x4000):
        with bus.stage("zero_fill"):
            clock.tick(5)
    live.detach()
    assert live.report()["faults"] == 2
    assert_matches_reference(live, [first, live.recorder.events])


# ---------------------------------------------------------------------
# Cheap by construction
# ---------------------------------------------------------------------

def test_telemetry_only_storm_constructs_no_events(monkeypatch):
    created = []

    class CountingEvent(bus_mod.Event):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            created.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(bus_mod, "Event", CountingEvent)
    monkeypatch.setattr(telemetry_mod, "Event", CountingEvent,
                        raising=False)
    _, telemetry = run_storm(arch="generic", tasks=3, pages=4, rounds=2)
    assert created == [], "telemetry built Event objects per span edge"
    trace = telemetry.worst_chrome_trace()
    assert created, "the worst-fault trace is built from Event objects"
    assert validate_chrome_trace(trace) == []


def test_instants_fire_only_while_recorded(bus):
    assert not bus.recording
    telemetry = FaultTelemetry().attach(bus)
    assert bus.active and not bus.recording
    with _fault(bus):
        assert bus.recording
        bus.emit("tlb", "fill", tag=1, vpn=1)
    assert not bus.recording
    bus.emit("tlb", "fill", tag=1, vpn=2)   # dropped: no fault open
    records = telemetry.worst_faults()[0]["events"]
    assert [(event.phase, event.kind) for event in records] == \
        [("B", "fault"), ("i", "fill"), ("E", "fault")]
    bus.subscribe(lambda event: None)
    assert bus.recording
    telemetry.detach()
    assert bus.recording and bus.active


def test_stage_hands_out_one_span_per_stage(bus):
    assert bus.stage("map_lookup") is bus.span("vm", "fault")  # null
    bus.subscribe(lambda event: None)
    span = bus.stage("map_lookup")
    assert bus.stage("map_lookup") is span
    assert bus.stage("zero_fill") is not span
    with pytest.raises(KeyError):
        bus.stage("no_such_stage")


# ---------------------------------------------------------------------
# Reproducible output
# ---------------------------------------------------------------------

def test_chrome_trace_numbers_pmap_tags_by_first_appearance():
    bus = EventBus()
    recorder = EventRecorder(bus)
    for tag in (0x7F00, 0x5A00, 0x7F00):
        bus.emit("tlb", "fill", tag=tag, vpn=1)
    bus.emit("pmap", "shootdown", start=0, end=4096)
    trace = chrome_trace(recorder.events)
    assert [entry["args"].get("tag") for entry in trace
            if entry.get("ph") == "i"] == [1, 2, 1, None]


def test_worst_fault_trace_file_is_identical_across_processes(tmp_path):
    """Same command, same bytes: the ``tlb/*`` events' pmap tags are
    host object ids, renumbered at export."""
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        subprocess.run(
            [sys.executable, "-m", "repro", "storm", "--arch", "generic",
             "--tasks", "3", "--pages", "4", "--rounds", "2",
             "--trace-out", str(path)],
            check=True, capture_output=True,
            env={**os.environ, "PYTHONPATH": str(SRC)})
    first, second = (path.read_bytes() for path in paths)
    assert b'"tag"' in first
    assert first == second


def test_page_fault_message_and_pickling():
    fault = PageFault(0x3000, FaultType.WRITE, cpu_id=1)
    assert str(fault) == f"page fault at 0x3000 ({FaultType.WRITE!r})"
    copy = pickle.loads(pickle.dumps(fault))
    assert (copy.vaddr, copy.fault_type, copy.cpu_id) == \
        (0x3000, FaultType.WRITE, 1)
    assert str(copy) == str(fault)
