"""Simulated processors.

Each CPU owns a TLB and an "active pmap" (the hardware map loaded into
its MMU, switched by ``pmap_activate``/``pmap_deactivate``).  CPUs also
model the two interruption mechanisms the paper's TLB-shootdown
strategies rely on (Section 5.2):

* an inter-processor interrupt, delivered immediately ("forcibly
  interrupt all CPUs which may be using a shared portion of an address
  map so that their address translation buffers may be flushed"), and
* a timer tick, at which deferred flush requests queued against the CPU
  are drained ("postpone use of a changed mapping until all CPUs have
  taken a timer interrupt").
"""

from __future__ import annotations

from typing import Callable, Optional


class CPU:
    """One processor of a simulated machine."""

    def __init__(self, cpu_id: int, tlb, machine) -> None:
        self.cpu_id = cpu_id
        self.tlb = tlb
        self.machine = machine
        self.active_pmap = None
        self.active_thread = None
        #: Flush thunks queued for the next timer tick (deferred
        #: shootdown strategy).
        self._deferred_flushes: list[Callable[[], None]] = []
        #: ``(pmap tag, start, end)`` ranges a lazy shootdown left this
        #: TLB owing until the pmap's next activate-time flush.  A record
        #: for the sanitizer only; it charges no simulated time.
        self.lazy_owed: list[tuple[int, int, int]] = []
        self.ipi_count = 0
        self.timer_ticks = 0

    @property
    def events(self):
        """The machine's event bus (``cpu/...`` events go there)."""
        return self.machine.events

    def deliver_ipi(self, flush: Callable[[], None]) -> None:
        """Take an inter-processor interrupt and run *flush* now."""
        self.machine.clock.charge(self.machine.costs.ipi_us)
        self.ipi_count += 1
        self.events.emit("cpu", "ipi", cpu=self.cpu_id)
        flush()

    def defer_flush(self, flush: Callable[[], None]) -> None:
        """Queue *flush* to run at this CPU's next timer tick."""
        self._deferred_flushes.append(flush)

    @property
    def has_deferred_flushes(self) -> bool:
        """True when flushes await the next timer tick."""
        return bool(self._deferred_flushes)

    def timer_tick(self) -> None:
        """Take a timer interrupt, draining deferred flushes.  The
        ``cpu/tick`` event fires after the drain — observers see the
        deferred-shootdown window close."""
        self.timer_ticks += 1
        pending, self._deferred_flushes = self._deferred_flushes, []
        for flush in pending:
            flush()
        self.events.emit("cpu", "tick", cpu=self.cpu_id,
                         drained=len(pending))

    def __repr__(self) -> str:
        active = getattr(self.active_pmap, "name", self.active_pmap)
        return f"CPU({self.cpu_id}, pmap={active})"
