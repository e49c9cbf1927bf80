"""Per-fault pipeline-stage telemetry: tail latency with attribution.

:class:`FaultTelemetry` subscribes to the :class:`~repro.obs.bus.EventBus`
and turns the span stream into a fault-latency distribution with
per-stage attribution.  Every ``vm/fault`` span (from either entry
point — ``vm_fault`` or the batch lane — which share one per-page
resolver) becomes one latency sample; stage spans nested inside it
attribute slices of that latency to the fault pipeline's stages:

========== =========================== ==============================
stage      bus span                    what it covers
========== =========================== ==============================
mmu_probe  ``stage/mmu_probe``         TLB-miss hardware walk + fill
map_lookup ``stage/map_lookup``        address-map entry scan(s)
shadow_walk ``stage/shadow_walk``      shadow-chain descent
pager_wait ``pager/call``              pager RPC incl. retry backoff
zero_fill  ``stage/zero_fill``         zeroing a new bottom page
copy_up    ``stage/copy_up``           the COW page copy (+ frame
                                       allocation)
pmap_enter ``pmap/enter`` /            entering hardware translations
           ``pmap/enter_batch``
shootdown  ``stage/shootdown``         executing TLB-flush plans
reclaim    ``stage/reclaim``           synchronous low-memory stall
                                       (the daemon run "in front of"
                                       an allocation)
other      (derived)                   fault time none of the stages
                                       claimed
========== =========================== ==============================

Attribution is by *self time*: a stage's sample is its span duration
minus the durations of stage spans nested inside it (``pager/call``
inside ``stage/shadow_walk`` bills the RPC to ``pager_wait``, not to
the walk).  Stage spans seen outside any open fault — the batch lane's
deferred ``pmap/enter_batch`` flush, a shootdown from the pageout
daemon — accumulate in :attr:`outside_us` so no stage time is silently
dropped.  All durations are *simulated* microseconds off the machine
clock, so reports are deterministic for a given seed.

Distributions go into the bounded log-bucket
:class:`~repro.obs.metrics.Histogram` (no raw samples kept); the K
worst faults keep their buffered event lists for Chrome-trace export
of exactly the tail the percentiles point at.

Standard library only — see the module docstring of
:mod:`repro.obs.bus`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.export import chrome_trace
from repro.obs.metrics import Histogram

__all__ = ["FaultTelemetry", "STAGES", "STAGE_EVENTS",
           "format_latency_report"]

#: bus span name -> pipeline stage it attributes to.
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

#: Report order of the pipeline stages ("reclaim" is the synchronous
#: low-memory stall; "other" is the derived remainder of fault time no
#: stage claimed).
STAGES = ("mmu_probe", "map_lookup", "shadow_walk", "pager_wait",
          "zero_fill", "copy_up", "pmap_enter", "shootdown",
          "reclaim", "other")

#: Events buffered per fault for worst-fault trace export.
_FAULT_EVENT_CAP = 2048


class _OpenFault:
    """One in-flight ``vm/fault`` span on a track."""

    __slots__ = ("start", "task", "vaddr", "stage_us", "nested_us",
                 "events", "truncated")

    def __init__(self, event: Any) -> None:
        self.start = event.ts_us
        self.task = event.task
        self.vaddr = event.data.get("vaddr")
        self.stage_us: Dict[str, float] = {}
        self.nested_us = 0.0
        self.events: List[Any] = []
        self.truncated = False


class _TrackState:
    """Per-track span bookkeeping (spans nest strictly per track)."""

    __slots__ = ("faults", "stages", "pending_mmu_us")

    def __init__(self) -> None:
        self.faults: List[_OpenFault] = []
        #: open stage frames: [stage, kind, start_ts, child_us].
        self.stages: List[list] = []
        #: a trap-raising ``stage/mmu_probe`` closes *before* the
        #: ``vm/fault`` span it causes opens; its time is held here and
        #: folded into the next fault on the track.
        self.pending_mmu_us = 0.0


class FaultTelemetry:
    """Fault tail-latency observer: histograms + worst-fault traces.

    Attach to a bus (or any object with an ``events`` attribute — a
    kernel or a machine), run a workload, then read :meth:`report`::

        telemetry = FaultTelemetry().attach(kernel)
        ... storm ...
        report = telemetry.report()
        report["p999_us"], report["stages"]["pager_wait"]["p99"]

    ``keep_worst`` bounds how many worst-latency faults keep their
    buffered event lists for :meth:`worst_chrome_trace`.
    """

    def __init__(self, keep_worst: int = 8) -> None:
        self.keep_worst = keep_worst
        self.latency = Histogram("fault_latency_us", unit="us")
        self.stage_hist: Dict[str, Histogram] = {
            stage: Histogram(f"stage_{stage}_us", unit="us")
            for stage in STAGES
        }
        #: stage self-time observed outside any open fault span
        #: (deferred batch flushes, daemon shootdowns).
        self.outside_us: Dict[str, float] = {}
        self.fault_errors = 0
        self._tracks: Dict[str, _TrackState] = {}
        #: min-heap of (latency_us, seq, info-dict) for the K worst.
        self._worst: List[Tuple[float, int, Dict[str, Any]]] = []
        self._seq = itertools.count()
        self._bus: Optional[Any] = None

    # -- subscription ------------------------------------------------

    def attach(self, bus: Any) -> "FaultTelemetry":
        """Subscribe to *bus* (or to ``bus.events`` when given a
        kernel or machine)."""
        bus = getattr(bus, "events", bus)
        if self._bus is not None:
            self.detach()
        self._bus = bus
        bus.subscribe(self._on_event)
        return self

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(self._on_event)
            self._bus = None

    def __enter__(self) -> "FaultTelemetry":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.detach()
        return False

    # -- event handling ----------------------------------------------

    def _on_event(self, event: Any) -> None:
        track = self._tracks.get(event.track)
        if track is None:
            track = self._tracks[event.track] = _TrackState()
        name = f"{event.subsystem}/{event.kind}"
        phase = event.phase
        is_fault = name == "vm/fault"
        if is_fault and phase == "B":
            fault = _OpenFault(event)
            if track.pending_mmu_us:
                fault.stage_us["mmu_probe"] = track.pending_mmu_us
                track.pending_mmu_us = 0.0
            track.faults.append(fault)
        # Buffer into every open fault on the track — after a fault's
        # B has opened it and before its E closes it, so each buffer
        # is a balanced span subtree for trace export.
        for fault in track.faults:
            if len(fault.events) < _FAULT_EVENT_CAP:
                fault.events.append(event)
            else:
                fault.truncated = True
        if is_fault:
            if phase == "E":
                self._close_fault(track, event)
        else:
            stage = STAGE_EVENTS.get(name)
            if stage is not None:
                if phase == "B":
                    track.stages.append([stage, event.kind,
                                         event.ts_us, 0.0])
                elif phase == "E":
                    self._close_stage(track, event)

    def _close_stage(self, track: _TrackState, event: Any) -> None:
        frames = track.stages
        for i in range(len(frames) - 1, -1, -1):
            if frames[i][1] == event.kind:
                stage, _, start, child_us = frames.pop(i)
                break
        else:
            return  # attached mid-span: no matching B
        duration = event.ts_us - start
        self_us = max(0.0, duration - child_us)
        if frames:
            frames[-1][3] += duration
        if track.faults:
            fault = track.faults[-1]
            fault.stage_us[stage] = \
                fault.stage_us.get(stage, 0.0) + self_us
        elif stage == "mmu_probe" and event.data.get("error"):
            # The probe that raised the trap: part of the fault that
            # is about to open on this track.
            track.pending_mmu_us += self_us
        else:
            self.outside_us[stage] = \
                self.outside_us.get(stage, 0.0) + self_us

    def _close_fault(self, track: _TrackState, event: Any) -> None:
        if not track.faults:
            return  # attached mid-fault
        fault = track.faults.pop()
        total = event.ts_us - fault.start
        self.latency.record(total)
        if event.data.get("error"):
            self.fault_errors += 1
        attributed = fault.nested_us
        for stage, self_us in fault.stage_us.items():
            self.stage_hist[stage].record(self_us)
            attributed += self_us
        self.stage_hist["other"].record(max(0.0, total - attributed))
        if track.faults:
            # A nested fault (pager-driven) bills its whole latency to
            # the parent's accounting, never double to its stages.
            track.faults[-1].nested_us += total
        if self.keep_worst > 0:
            info = {
                "latency_us": total,
                "task": fault.task,
                "vaddr": fault.vaddr,
                "track": event.track,
                "stage_us": dict(fault.stage_us),
                "events": fault.events,
                "truncated": fault.truncated,
            }
            item = (total, next(self._seq), info)
            if len(self._worst) < self.keep_worst:
                heapq.heappush(self._worst, item)
            elif total > self._worst[0][0]:
                heapq.heapreplace(self._worst, item)

    # -- reporting ---------------------------------------------------

    def worst_faults(self) -> List[Dict[str, Any]]:
        """The K worst-latency faults, slowest first."""
        return [info for _, _, info in
                sorted(self._worst, reverse=True)]

    def worst_chrome_trace(self,
                           process_name: str = "repro-storm"
                           ) -> List[Dict[str, Any]]:
        """A Chrome trace_event list of the worst-percentile faults'
        buffered span subtrees (loadable in Perfetto)."""
        events: List[Any] = []
        seen = set()
        for info in self.worst_faults():
            for event in info["events"]:
                if id(event) not in seen:
                    seen.add(id(event))
                    events.append(event)
        events.sort(key=lambda e: e.ts_us)
        return chrome_trace(events, process_name=process_name)

    def report(self) -> Dict[str, Any]:
        """A JSON-ready latency report: percentiles + per-stage
        attribution.  ``share`` is the stage's fraction of the total
        fault time across all faults."""
        for track in self._tracks.values():
            # A trap-raising probe whose fault never opened (e.g. the
            # access error propagated) is plain outside-fault time.
            if track.pending_mmu_us and not track.faults:
                self.outside_us["mmu_probe"] = \
                    self.outside_us.get("mmu_probe", 0.0) \
                    + track.pending_mmu_us
                track.pending_mmu_us = 0.0
        latency = self.latency
        total_us = latency.total
        stages: Dict[str, Any] = {}
        for stage in STAGES:
            hist = self.stage_hist[stage]
            if not hist.count:
                continue
            digest = hist.to_dict()
            digest["share"] = round(hist.total / total_us, 4) \
                if total_us else 0.0
            stages[stage] = digest
        return {
            "faults": latency.count,
            "fault_errors": self.fault_errors,
            "mean_us": round(latency.mean, 3),
            "p50_us": round(latency.percentile(50), 3),
            "p95_us": round(latency.percentile(95), 3),
            "p99_us": round(latency.percentile(99), 3),
            "p999_us": round(latency.percentile(99.9), 3),
            "max_us": round(latency.max, 3),
            "stages": stages,
            "outside_us": {stage: round(us, 3) for stage, us
                           in sorted(self.outside_us.items())},
        }


def format_latency_report(report: Dict[str, Any]) -> str:
    """Render one :meth:`FaultTelemetry.report` dict as a text table."""
    lines = [
        (f"faults: {report['faults']}  "
         f"p50={report['p50_us']:.1f}us  "
         f"p95={report['p95_us']:.1f}us  "
         f"p99={report['p99_us']:.1f}us  "
         f"p999={report['p999_us']:.1f}us  "
         f"max={report['max_us']:.1f}us"),
    ]
    stages = report.get("stages") or {}
    if stages:
        lines.append(f"  {'stage':<12} {'count':>8} {'mean':>10} "
                     f"{'p99':>10} {'share':>7}")
        for stage in STAGES:
            digest = stages.get(stage)
            if digest is None:
                continue
            lines.append(
                f"  {stage:<12} {digest['count']:>8} "
                f"{digest['mean']:>8.1f}us {digest['p99']:>8.1f}us "
                f"{digest['share'] * 100:>6.1f}%")
    outside = report.get("outside_us") or {}
    if outside:
        parts = ", ".join(f"{stage}={us:.0f}us"
                          for stage, us in outside.items())
        lines.append(f"  outside faults: {parts}")
    if report.get("fault_errors"):
        lines.append(f"  fault errors: {report['fault_errors']}")
    return "\n".join(lines)
