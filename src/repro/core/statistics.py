"""VM statistics (the ``vm_statistics`` call of Table 2-1)."""

from __future__ import annotations

from dataclasses import dataclass


class KernelStats:
    """Mutable event counters accumulated by the kernel.

    The core counters are independently *derivable* from the
    instrumentation bus: :class:`repro.obs.MetricsRegistry` recomputes
    ``faults``, ``cow_faults``, ``zero_fill_count``, ``pageins``,
    ``pageouts``, ``reactivations``, ``messages_sent``,
    ``messages_received``, ``tasks_created`` and ``tasks_terminated``
    purely from ``kernel.events``, and ``tests/test_obs.py`` holds the
    two equal.  These fields stay authoritative (they are what
    ``vm_statistics`` reports); the bus derivation is the cross-check
    that catches an emit site drifting from its counter.
    """

    def __init__(self) -> None:
        self.faults = 0
        self.cow_faults = 0
        self.zero_fill_count = 0
        self.pageins = 0
        self.pageouts = 0
        self.reactivations = 0
        self.tasks_created = 0
        self.tasks_terminated = 0
        self.messages_sent = 0
        self.messages_received = 0
        # Failure-path counters (fault injection / errant pagers).
        self.pager_retries = 0
        self.pagers_declared_dead = 0
        self.orphans_adopted = 0
        self.pageout_failures = 0
        self.fault_errors = 0
        self.dead_pager_zero_fills = 0
        # Pager protocol v2 counters: faults parked on a pending-fault
        # queue while their pager request is in flight, whole tasks the
        # scheduler retired on borrowed CPU time during a pager backoff
        # wait, and extra pages installed from readahead scatter-gather
        # replies beyond the faulting cluster.
        self.faults_parked = 0
        self.tasks_completed_during_pager_wait = 0
        self.readahead_pageins = 0

    def __repr__(self) -> str:
        return (f"KernelStats(faults={self.faults}, cow={self.cow_faults}, "
                f"zfill={self.zero_fill_count}, pageins={self.pageins}, "
                f"pageouts={self.pageouts})")


@dataclass(frozen=True)
class VMStatistics:
    """A point-in-time snapshot, in the shape of Mach's
    ``vm_statistics`` reply."""

    pagesize: int
    free_count: int
    active_count: int
    inactive_count: int
    wire_count: int
    faults: int
    cow_faults: int
    zero_fill_count: int
    pageins: int
    pageouts: int
    reactivations: int
    objects_created: int
    shadows_created: int
    shadow_collapses: int
    shadow_bypasses: int
    object_cache_hits: int

    def describe(self) -> str:
        """A human-readable multi-line rendering."""
        lines = [f"page size          {self.pagesize}"]
        for name in ("free_count", "active_count", "inactive_count",
                     "wire_count", "faults", "cow_faults",
                     "zero_fill_count", "pageins", "pageouts",
                     "reactivations", "objects_created", "shadows_created",
                     "shadow_collapses", "shadow_bypasses",
                     "object_cache_hits"):
            lines.append(f"{name:<19}{getattr(self, name)}")
        return "\n".join(lines)
