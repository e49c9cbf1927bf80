"""The pinned test-only oracle for the bus's fault-stage ledger.

:class:`ReferenceTelemetry` is the fault-latency attribution as it
stood when :class:`~repro.obs.FaultTelemetry` was a plain bus
subscriber: per-track span bookkeeping driven by the :class:`Event`
stream, one ``_on_event`` dispatch per event.  The live telemetry now
reads the ledger :class:`~repro.obs.EventBus` keeps in place;
``tests/test_telemetry_ledger.py`` records the same run with an
:class:`~repro.obs.EventRecorder`, feeds the stream here, and asserts
equal reports, outside-fault time and worst-fault logs.

Keep this file in sync with the *semantics* of the ledger, never with
its implementation.  One deliberate rule beyond the original
subscriber: each :meth:`feed` is one attach window and starts with
empty track state (the bus drops its ledger on the last detach), and
trap-probe time still pending on a track with no open fault at the
end of a window is outside-fault time.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Dict, List, Tuple

from repro.obs import STAGES
from repro.obs.bus import FAULT_EVENT_CAP, STAGE_EVENTS
from repro.obs.metrics import Histogram


class _OpenFault:
    """One in-flight ``vm/fault`` span on a track."""

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

    def __init__(self) -> None:
        self.faults: List[_OpenFault] = []
        #: open stage frames: [stage, kind, start_ts, child_us].
        self.stages: List[list] = []
        self.pending_mmu_us = 0.0


class ReferenceTelemetry:
    """Fault latency and stage attribution from a recorded stream."""

    def __init__(self, keep_worst: int = 8) -> None:
        self.keep_worst = keep_worst
        self.latency = Histogram("fault_latency_us", unit="us")
        self.stage_hist = {stage: Histogram(f"stage_{stage}_us", unit="us")
                           for stage in STAGES}
        self.outside_us: Dict[str, float] = {}
        self.fault_errors = 0
        self._worst: List[Tuple[float, int, Dict[str, Any]]] = []
        self._seq = itertools.count()

    def feed(self, events) -> "ReferenceTelemetry":
        """Consume one attach window's recorded events."""
        self._tracks: Dict[str, _TrackState] = {}
        for event in events:
            self._on_event(event)
        for track in self._tracks.values():
            if track.pending_mmu_us and not track.faults:
                self.outside_us["mmu_probe"] = \
                    self.outside_us.get("mmu_probe", 0.0) \
                    + track.pending_mmu_us
        return self

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
        # B has opened it and before its E closes it.
        for fault in track.faults:
            if len(fault.events) < FAULT_EVENT_CAP:
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

    def worst_faults(self) -> List[Dict[str, Any]]:
        return [info for _, _, info in sorted(self._worst, reverse=True)]

    def report(self) -> Dict[str, Any]:
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
