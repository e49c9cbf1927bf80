"""Per-fault pipeline-stage telemetry: tail latency with attribution.

:class:`FaultTelemetry` attaches to the :class:`~repro.obs.bus.EventBus`
and turns its span stream into a fault-latency distribution with
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

The span bookkeeping — open faults, open stage frames, self time — is
the bus's fault-stage ledger, updated in place on every span edge
while a telemetry is attached (see :mod:`repro.obs.bus`); the
telemetry gets one :meth:`FaultTelemetry.fault_closed` call per closed
fault.  Distributions go into the bounded log-bucket
:class:`~repro.obs.metrics.Histogram` (no raw samples kept); the K
worst faults keep their logged records, built into events only when
:meth:`FaultTelemetry.worst_faults` asks, for Chrome-trace export of
exactly the tail the percentiles point at.

Standard library only — see the module docstring of
:mod:`repro.obs.bus`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.bus import STAGE_EVENTS, Event
from repro.obs.export import chrome_trace
from repro.obs.metrics import Histogram

__all__ = ["FaultTelemetry", "STAGES", "STAGE_EVENTS",
           "format_latency_report"]

#: Report order of the pipeline stages ("reclaim" is the synchronous
#: low-memory stall; "other" is the derived remainder of fault time no
#: stage claimed).
STAGES = ("mmu_probe", "map_lookup", "shadow_walk", "pager_wait",
          "zero_fill", "copy_up", "pmap_enter", "shootdown",
          "reclaim", "other")


class FaultTelemetry:
    """Fault tail-latency observer: histograms + worst-fault traces.

    Attach to a bus (or any object with an ``events`` attribute — a
    kernel or a machine), run a workload, then read :meth:`report`::

        telemetry = FaultTelemetry().attach(kernel)
        ... storm ...
        report = telemetry.report()
        report["p999_us"], report["stages"]["pager_wait"]["p99"]

    It is not a bus subscriber: the bus keeps the per-track fault-stage
    ledger while it is attached and calls :meth:`fault_closed` once
    per closed fault.  ``keep_worst`` bounds how many worst-latency
    faults keep their logged records for :meth:`worst_chrome_trace`.
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
        #: min-heap of (latency_us, seq, info-dict) for the K worst.
        self._worst: List[Tuple[float, int, Dict[str, Any]]] = []
        self._seq = itertools.count()
        self._bus: Optional[Any] = None

    # -- attachment --------------------------------------------------

    def attach(self, bus: Any) -> "FaultTelemetry":
        """Attach to *bus* (or to ``bus.events`` when given a kernel
        or machine)."""
        bus = getattr(bus, "events", bus)
        if self._bus is not None:
            self.detach()
        self._bus = bus
        bus.attach_telemetry(self)
        return self

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.detach_telemetry(self)
            self._bus = None

    def __enter__(self) -> "FaultTelemetry":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.detach()
        return False

    # -- the ledger's calls ------------------------------------------

    def fault_closed(self, fault: Any, total: float, track: str,
                     error: bool) -> None:
        """Record one closed fault of *total* µs on *track*: its
        latency, its stages' self time, and — only when it enters the
        worst-K heap — its info dict and logged records."""
        self.latency.record(total)
        if error:
            self.fault_errors += 1
        attributed = fault.nested_us
        stage_hist = self.stage_hist
        for stage, self_us in fault.stage_us.items():
            stage_hist[stage].record(self_us)
            attributed += self_us
        stage_hist["other"].record(max(0.0, total - attributed))
        worst = self._worst
        if len(worst) < self.keep_worst or (
                worst and total > worst[0][0]):
            records, truncated = fault.records()
            info = {
                "latency_us": total,
                "task": fault.task,
                "vaddr": fault.vaddr,
                "track": track,
                "stage_us": dict(fault.stage_us),
                "events": records,
                "truncated": truncated,
            }
            item = (total, next(self._seq), info)
            if len(worst) < self.keep_worst:
                heapq.heappush(worst, item)
            else:
                heapq.heapreplace(worst, item)

    def outside_stage(self, stage: str, self_us: float) -> None:
        """Record stage self time seen outside any open fault."""
        self.outside_us[stage] = self.outside_us.get(stage, 0.0) + self_us

    # -- reporting ---------------------------------------------------

    def worst_faults(self) -> List[Dict[str, Any]]:
        """The K worst-latency faults, slowest first.  Their ``events``
        are built here from the logged records, one :class:`Event` per
        record (a record nested faults share becomes one object)."""
        built: Dict[int, Any] = {}
        worst = []
        for _, _, info in sorted(self._worst, reverse=True):
            events = []
            for record in info["events"]:
                event = built.get(id(record))
                if event is None:
                    event = built[id(record)] = Event(*record)
                events.append(event)
            worst.append(dict(info, events=events))
        return worst

    def worst_chrome_trace(self,
                           process_name: str = "repro-storm"
                           ) -> List[Dict[str, Any]]:
        """A Chrome trace_event list of the worst-percentile faults'
        logged span subtrees (loadable in Perfetto)."""
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
        if self._bus is not None:
            self._bus.settle_probes()
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
