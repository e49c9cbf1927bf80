"""Deterministic fault injection for the VM simulation.

Section 4 of the paper raises the cost of moving memory management out
of the kernel: "the possibility that a memory manager task may be
errant".  This package manufactures errant components — flaky disks,
lossy message transports, stalling/crashing/garbage-spewing pagers —
so the kernel's defenses (bounded retries on the simulated clock,
typed fault errors, dead-pager degradation) can be proven rather than
presumed.

* :mod:`repro.inject.injector` — the seeded :class:`FaultInjector` and
  its :class:`FaultConfig` probability profile;
* :mod:`repro.inject.pagers` — :class:`FaultyPager` (randomized) and
  :class:`ScriptedPager` (deterministic) errant memory managers.

The arch x scenario survival matrix behind ``python -m repro
faultsweep`` arms these from :mod:`repro.analysis.matrix`.

Everything is deterministic: one ``random.Random(seed)`` drives every
fault decision, and no code path reads the wall clock.  The kernel
side never imports this package — the hook points are duck-typed
attributes (``SimDisk.injector``, ``Port.injector``) armed from here.
"""

from repro.inject.injector import CHAOS, FaultConfig, FaultInjector
from repro.inject.pagers import (
    GARBAGE_REPLY,
    FaultyPager,
    ScriptedPager,
    StoreBackedPager,
)

__all__ = [
    "CHAOS",
    "FaultConfig",
    "FaultInjector",
    "FaultyPager",
    "GARBAGE_REPLY",
    "ScriptedPager",
    "StoreBackedPager",
]
