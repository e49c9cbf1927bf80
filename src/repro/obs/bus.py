"""The instrumentation event bus and the fault-stage ledger.

Every layer of the reproduction — fault handler, pageout daemon, pmap
and TLB, pagers, IPC ports, scheduler, buffer cache — reports what it
is doing through one :class:`EventBus` owned by the machine: spans
with a payload (:meth:`~EventBus.span`), the payload-free span of one
fault-pipeline stage (:meth:`~EventBus.stage`, one reusable object per
bus and stage), and instants (:meth:`~EventBus.emit`).  Subscribers
(the :class:`EventRecorder`, which is the one event log, and the race
detector) are plain callables that get every :class:`Event`.  Nothing
here counts: the kernel's ``KernelStats`` is the one counter source.

Fault telemetry is not a subscriber.  While a
:class:`~repro.obs.telemetry.FaultTelemetry` is attached, the bus keeps
the fault-stage ledger per display track — open faults, open stage
frames, pending trap-probe time, and a bounded log of compact records
while a fault is open — so a span edge costs one in-place update, not
an ``Event`` and a fan-out, and the telemetry gets one call per closed
fault.  The last detach drops the ledger.

``active`` (a subscriber or a telemetry is attached) guards span
sites; ``recording`` (a subscriber is attached, or a fault is open
under a telemetry) guards instants, which no one would keep otherwise.
Both are plain attributes the bus maintains, so an idle check is one
attribute load; with nobody listening nothing is allocated.

This module is imported by the hardware substrate and the pmap layer,
so it must stay self-contained: standard library only, no imports from
any other ``repro`` package (the layering lint enforces this via its
``TELEMETRY`` allowance).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Event", "EventBus", "EventRecorder", "STAGE_EVENTS"]

#: bus span name -> the fault-pipeline stage it attributes to.
STAGE_EVENTS = {
    "stage/mmu_probe": "mmu_probe",
    "stage/map_lookup": "map_lookup",
    "stage/shadow_walk": "shadow_walk",
    "pager/call": "pager_wait",
    "stage/zero_fill": "zero_fill",
    "stage/copy_up": "copy_up",
    "pmap/enter": "pmap_enter",
    "pmap/enter_batch": "pmap_enter",
    "stage/shootdown": "shootdown",
    "stage/reclaim": "reclaim",
}

#: Records logged per open fault for worst-fault trace export.
FAULT_EVENT_CAP = 2048

#: The ledger role of ``vm/fault`` edges; every other role is the name
#: of the stage the span attributes to.
_FAULT = "vm/fault"

#: (subsystem, kind) -> the span's ledger role.
_ROLES: Dict[Tuple[str, str], str] = {
    tuple(name.split("/")): stage for name, stage in STAGE_EVENTS.items()}
_ROLES["vm", "fault"] = _FAULT
#: the kinds :meth:`EventBus.stage` serves (``stage/<kind>`` spans).
_STAGES = [kind for sub, kind in _ROLES if sub == "stage"]


class Event:
    """One typed record on the bus.

    ``ts_us`` is the simulated elapsed-time stamp (monotonic across the
    whole machine, so every per-track event stream is non-decreasing).
    ``phase`` follows the Chrome trace_event convention: ``"B"`` begins
    a span, ``"E"`` ends it, ``"i"`` is an instant event.  ``track`` is
    the display lane — ``cpu<N>`` by default, or an override such as
    ``daemon`` / ``pager`` pushed by long-running service loops.
    ``data`` carries kind-specific payload (never copied by the bus).
    """

    __slots__ = ("ts_us", "cpu", "track", "phase", "subsystem", "kind",
                 "task", "data")

    def __init__(self, ts_us: float, cpu: int, track: str, phase: str,
                 subsystem: str, kind: str, task: str,
                 data: Dict[str, Any]) -> None:
        self.ts_us = ts_us
        self.cpu = cpu
        self.track = track
        self.phase = phase
        self.subsystem = subsystem
        self.kind = kind
        self.task = task
        self.data = data

    @property
    def name(self) -> str:
        """The full event name, ``subsystem/kind``."""
        return f"{self.subsystem}/{self.kind}"

    def __repr__(self) -> str:
        extra = f" {self.data}" if self.data else ""
        task = f" task={self.task}" if self.task else ""
        return (f"Event({self.ts_us:.1f}us cpu{self.cpu} {self.phase} "
                f"{self.subsystem}/{self.kind}{task}{extra})")


class _ZeroClock:
    """Fallback clock for buses created outside a machine (tests that
    construct a TLB or CPU standalone)."""

    elapsed_us = 0.0


class _CpuTracks(dict):
    """cpu id -> its default display track, ``cpu<N>`` (formatted once)."""

    def __missing__(self, cpu: int) -> str:
        name = self[cpu] = f"cpu{cpu}"
        return name


class _NullSpan:
    """Shared do-nothing span returned when nobody is listening."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def note(self, **data: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _Span:
    """A live begin/end span with payload: ``B`` on enter, ``E`` on exit.

    ``note(**data)`` accumulates payload attached to the closing event
    (the natural place for outcomes computed during the span).  An
    exception escaping the body is recorded as ``error`` unless the
    body already noted one.
    """

    __slots__ = ("_bus", "_subsystem", "_kind", "_task", "_begin_data",
                 "_end_data", "_role")

    def __init__(self, bus: "EventBus", subsystem: str, kind: str,
                 task: str, begin_data: Dict[str, Any]) -> None:
        self._bus = bus
        self._subsystem = subsystem
        self._kind = kind
        self._task = task
        self._begin_data = begin_data
        self._end_data: Dict[str, Any] = {}
        self._role = _ROLES.get((subsystem, kind))

    def note(self, **data: Any) -> "_Span":
        self._end_data.update(data)
        return self

    def __enter__(self) -> "_Span":
        self._bus._edge(self._subsystem, self._kind, "B", self._task,
                        None, self._begin_data, self._role)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc_type is not None and "error" not in self._end_data:
            self._end_data["error"] = exc_type.__name__
        self._bus._edge(self._subsystem, self._kind, "E", self._task,
                        None, self._end_data, self._role)
        return False


class _StageSpan:
    """The reusable, payload-free span of one fault-pipeline stage.

    It holds no per-use state, so one object serves every (nested) use
    on its bus.  An escaping exception still marks the closing edge
    with ``error`` (that is how a trap-raising ``mmu_probe`` is billed
    to the fault it causes).
    """

    __slots__ = ("_bus", "_kind")

    def __init__(self, bus: "EventBus", kind: str) -> None:
        self._bus = bus
        self._kind = kind

    def __enter__(self) -> "_StageSpan":
        self._bus._edge("stage", self._kind, "B", "", None, {},
                        self._kind)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        data = {} if exc_type is None else {"error": exc_type.__name__}
        self._bus._edge("stage", self._kind, "E", "", None, data,
                        self._kind)
        return False


class _OpenFault:
    """One ``vm/fault`` span open on a track, as the ledger keeps it.

    ``stage_us`` is the stage self time billed to it, ``nested_us``
    the latency of faults nested in it.  Its records start at
    ``log[first]``; ``seen`` counts them once it closes (until then it
    holds the track's ``dropped`` count at open).
    """

    __slots__ = ("start_us", "task", "vaddr", "stage_us", "nested_us",
                 "log", "first", "seen")

    def __init__(self, start_us: float, task: str, vaddr: Any,
                 log: List[tuple], dropped: int) -> None:
        self.start_us = start_us
        self.task = task
        self.vaddr = vaddr
        self.stage_us: Dict[str, float] = {}
        self.nested_us = 0.0
        self.log = log
        self.first = len(log)
        self.seen = dropped

    def records(self) -> Tuple[List[tuple], bool]:
        """``(records, truncated)`` of a fault as it closes: its first
        :data:`FAULT_EVENT_CAP` records, ``B`` through ``E``, each the
        :class:`Event` fields in order, and whether it saw more."""
        return (self.log[self.first:self.first + FAULT_EVENT_CAP],
                self.seen > FAULT_EVENT_CAP)


class _Track:
    """The ledger state of one display track (spans nest strictly per
    track)."""

    __slots__ = ("faults", "frames", "pending_mmu_us", "log", "limit",
                 "dropped")

    def __init__(self) -> None:
        self.faults: List[_OpenFault] = []
        #: open stage frames: [stage, kind, start_us, child_us].
        self.frames: List[list] = []
        #: a trap-raising ``stage/mmu_probe`` closes *before* the
        #: ``vm/fault`` span it causes opens; its self time waits here
        #: for the next fault on the track.
        self.pending_mmu_us = 0.0
        #: records while a fault is open, appended only while the
        #: innermost fault has room (an outer one is full first).
        self.log: List[tuple] = []
        #: log length at which the innermost fault is full (0: none).
        self.limit = 0
        #: records left out of a full log, for the truncation flags.
        self.dropped = 0


class EventBus:
    """The single fan-out point for kernel instrumentation.

    One bus per :class:`~repro.hw.machine.Machine`; the kernel keeps an
    alias (``kernel.events``) and updates ``current_cpu`` as the
    simulated point of execution moves.  Emitters call :meth:`span`,
    :meth:`stage` or :meth:`emit`; observers register plain callables
    with :meth:`subscribe`, and fault telemetry attaches with
    :meth:`attach_telemetry`.
    """

    def __init__(self, clock: Optional[Any] = None) -> None:
        #: object exposing ``elapsed_us`` — the machine's SimClock.
        self.clock = clock if clock is not None else _ZeroClock()
        #: the CPU id stamped on events that do not name one.
        self.current_cpu = 0
        self._subscribers: List[Callable[[Event], None]] = []
        self._track_stack: List[str] = []
        self._cpu_tracks = _CpuTracks()
        self._stages = {kind: _StageSpan(self, kind) for kind in _STAGES}
        #: attached fault telemetries, and the ledger they share
        #: (track -> _Track; None while none is attached).
        self._telemetries: List[Any] = []
        self._ledger: Optional[Dict[str, _Track]] = None
        self._open_faults = 0
        #: a subscriber or a telemetry is attached (see module doc).
        self.active = False
        #: a subscriber is attached or a fault is open under a
        #: telemetry (see module doc).
        self.recording = False

    def _listeners_changed(self) -> None:
        self.active = bool(self._subscribers or self._telemetries)
        self.recording = bool(self._subscribers) or self._open_faults > 0

    # -- subscription ------------------------------------------------

    def subscribe(self, fn: Callable[[Event], None]) -> Callable[[Event], None]:
        """Register *fn* to receive every event.  Idempotent."""
        if fn not in self._subscribers:
            self._subscribers.append(fn)
        self._listeners_changed()
        return fn

    def unsubscribe(self, fn: Callable[[Event], None]) -> None:
        """Remove *fn*; tolerates an already-removed subscriber."""
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass
        self._listeners_changed()

    def attach_telemetry(self, telemetry: Any) -> None:
        """Start feeding *telemetry* from the fault-stage ledger (the
        first attach starts an empty ledger).  *telemetry* provides
        ``fault_closed(fault, total_us, track, error)`` and
        ``outside_stage(stage, self_us)``.  Idempotent."""
        if telemetry not in self._telemetries:
            self._telemetries.append(telemetry)
        if self._ledger is None:
            self._ledger = {}
        self._listeners_changed()

    def detach_telemetry(self, telemetry: Any) -> None:
        """Stop feeding *telemetry* (settling its trap probes first);
        tolerates a detached one.  The last detach drops the ledger,
        so a later attach starts clean."""
        if telemetry not in self._telemetries:
            return
        self.settle_probes([telemetry])
        self._telemetries.remove(telemetry)
        if not self._telemetries:
            self._ledger = None
            self._open_faults = 0
        self._listeners_changed()

    def settle_probes(self, telemetries: Optional[List[Any]] = None
                      ) -> None:
        """Bill trap-probe time whose fault never opened (the access
        error propagated) as outside-fault ``mmu_probe`` time, to
        *telemetries* (default: every attached one)."""
        for state in (self._ledger or {}).values():
            if state.pending_mmu_us and not state.faults:
                for telemetry in telemetries or self._telemetries:
                    telemetry.outside_stage("mmu_probe",
                                            state.pending_mmu_us)
                state.pending_mmu_us = 0.0

    # -- track overrides ---------------------------------------------

    def push_track(self, name: str) -> None:
        """Route subsequent events to display lane *name* (e.g. the
        pageout daemon's loop pushes ``"daemon"``)."""
        self._track_stack.append(name)

    def pop_track(self) -> None:
        """Undo the most recent :meth:`push_track`."""
        if self._track_stack:
            self._track_stack.pop()

    # -- emission ----------------------------------------------------

    def emit(self, subsystem: str, kind: str, phase: str = "i",
             task: str = "", cpu: Optional[int] = None,
             **data: Any) -> Optional[Event]:
        """Publish one event.  Returns the :class:`Event` handed to the
        subscribers, or None when there are none (nothing is
        allocated).  An instant is a no-op unless :attr:`recording`."""
        if phase == "i":
            if not self.recording:
                return None
            return self._edge(subsystem, kind, phase, task, cpu, data,
                              None)
        if not self.active:
            return None
        return self._edge(subsystem, kind, phase, task, cpu, data,
                          _ROLES.get((subsystem, kind)))

    def span(self, subsystem: str, kind: str, task: str = "",
             **data: Any):
        """A context manager emitting a ``B``/``E`` pair around its
        body.  Returns a shared null span when nobody is listening."""
        if not self.active:
            return _NULL_SPAN
        return _Span(self, subsystem, kind, task, data)

    def stage(self, kind: str):
        """The payload-free ``stage/<kind>`` span of one fault-pipeline
        stage: the bus's one reusable span for it, or a shared null
        span when nobody is listening.  KeyError for any other kind."""
        if not self.active:
            return _NULL_SPAN
        return self._stages[kind]

    def _edge(self, subsystem: str, kind: str, phase: str, task: str,
              cpu: Optional[int], data: Dict[str, Any],
              role: Optional[str]) -> Optional[Event]:
        """Deliver one span edge or instant: the ledger update first
        (while a telemetry is attached), then every subscriber.  *role*
        is the span's ledger role (None for instants and spans no
        stage claims)."""
        if cpu is None:
            cpu = self.current_cpu
        stack = self._track_stack
        track = stack[-1] if stack else self._cpu_tracks[cpu]
        ts = self.clock.elapsed_us
        ledger = self._ledger
        if ledger is not None:
            state = ledger.get(track)
            if state is None:
                state = ledger[track] = _Track()
            if role is _FAULT and phase == "B":
                self._open_fault(state, ts, task, data)
            log = state.log
            if len(log) < state.limit:
                log.append((ts, cpu, track, phase, subsystem, kind, task,
                            data))
            elif state.faults:
                state.dropped += 1
            if role is _FAULT:
                if phase == "E" and state.faults:
                    self._close_fault(state, ts, track, data)
            elif role is not None:
                if phase == "B":
                    state.frames.append([role, kind, ts, 0.0])
                elif phase == "E":
                    self._close_stage(state, kind, ts, data)
        subscribers = self._subscribers
        if not subscribers:
            return None
        event = Event(ts, cpu, track, phase, subsystem, kind, task, data)
        for fn in subscribers:
            fn(event)
        return event

    # -- the fault-stage ledger --------------------------------------

    def _open_fault(self, state: _Track, ts: float, task: str,
                    data: Dict[str, Any]) -> None:
        fault = _OpenFault(ts, task, data.get("vaddr"), state.log,
                           state.dropped)
        if state.pending_mmu_us:
            fault.stage_us["mmu_probe"] = state.pending_mmu_us
            state.pending_mmu_us = 0.0
        state.faults.append(fault)
        state.limit = fault.first + FAULT_EVENT_CAP
        self._open_faults += 1
        self.recording = True

    def _close_stage(self, state: _Track, kind: str, ts: float,
                     data: Dict[str, Any]) -> None:
        frames = state.frames
        if frames and frames[-1][1] == kind:
            stage, _, start, child_us = frames.pop()
        else:
            for i in range(len(frames) - 2, -1, -1):
                if frames[i][1] == kind:
                    stage, _, start, child_us = frames.pop(i)
                    break
            else:
                return  # attached mid-span: no matching B
        duration = ts - start
        self_us = max(0.0, duration - child_us)
        if frames:
            frames[-1][3] += duration
        faults = state.faults
        if faults:
            stage_us = faults[-1].stage_us
            stage_us[stage] = stage_us.get(stage, 0.0) + self_us
        elif stage == "mmu_probe" and data.get("error"):
            # The probe that raised the trap: part of the fault that
            # is about to open on this track.
            state.pending_mmu_us += self_us
        else:
            for telemetry in self._telemetries:
                telemetry.outside_stage(stage, self_us)

    def _close_fault(self, state: _Track, ts: float, track: str,
                     data: Dict[str, Any]) -> None:
        faults = state.faults
        fault = faults.pop()
        # Everything logged since it opened is its own (nested faults'
        # records included), plus what was dropped meanwhile.
        fault.seen = len(state.log) - fault.first \
            + state.dropped - fault.seen
        total = ts - fault.start_us
        error = bool(data.get("error"))
        for telemetry in self._telemetries:
            telemetry.fault_closed(fault, total, track, error)
        if faults:
            # A nested fault (pager-driven) bills its whole latency to
            # the parent's accounting, never double to its stages.
            faults[-1].nested_us += total
            state.limit = faults[-1].first + FAULT_EVENT_CAP
        else:
            state.log.clear()
            state.limit = 0
        self._open_faults -= 1
        if not self._open_faults:
            self.recording = bool(self._subscribers)


class EventRecorder:
    """The simplest subscriber: append events to a bounded list.

    Usable directly as a context manager::

        with EventRecorder(kernel.events) as rec:
            task.write(addr, b"x")
        print(rec.events)
    """

    def __init__(self, bus: Optional[EventBus] = None,
                 capacity: int = 100_000) -> None:
        self.events: List[Event] = []
        self.capacity = capacity
        self.dropped = 0
        self._bus: Optional[EventBus] = None
        if bus is not None:
            self.attach(bus)

    def __call__(self, event: Event) -> None:
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(event)

    def attach(self, bus: EventBus) -> "EventRecorder":
        """Subscribe to *bus* (detaching from any previous one)."""
        if self._bus is not None:
            self.detach()
        self._bus = bus
        bus.subscribe(self)
        return self

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(self)
            self._bus = None

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def __enter__(self) -> "EventRecorder":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.detach()
        return False
