"""The machine-independent / machine-dependent interface.

Section 3.6: "The purpose of Mach's machine dependent code is the
management of physical address maps (called pmaps). ... the pmap module
need not keep track of all currently valid mappings.  Virtual-to-
physical mappings may be thrown away at almost any time to improve
either space or speed efficiency and new mappings need not always be
made immediately but can often be lazy-evaluated. ... all virtual memory
information can be reconstructed at fault time from Mach's machine
independent data structures."

This module defines:

* :class:`Pmap` — the abstract per-task physical map, exporting exactly
  the required routine set of Table 3-3 and the optional set of
  Table 3-4 (as methods; module-level functions with the paper's
  spelling are provided at the bottom);
* :class:`PmapSystem` — state shared by all pmaps of one machine: the
  physical-to-virtual (pv) table used by ``pmap_remove_all`` and
  ``pmap_copy_on_write``, hardware-maintained reference/modify bits, and
  the multiprocessor TLB-shootdown machinery implementing the three
  strategies of Section 5.2.
"""

from __future__ import annotations

import abc
import enum
import itertools
from typing import Optional

from repro.core.constants import FaultType, VMProt
from repro.hw.machine import Machine

_pmap_ids = itertools.count(1)


class ShootdownStrategy(enum.Enum):
    """Section 5.2's three answers to non-coherent TLBs.

    IMMEDIATE — "forcibly interrupt all CPUs which may be using a shared
    portion of an address map so that their address translation buffers
    may be flushed" (used "whenever a change is time critical").

    DEFERRED — "postpone use of a changed mapping until all CPUs have
    taken a timer interrupt (and had a chance to flush)" (used by the
    paging system before pageout).

    LAZY — "allow temporary inconsistency", acceptable when "the
    semantics of the operation being performed do not require or even
    allow simultaneity" (e.g. protection changes propagate per-CPU as
    each next touches the map).
    """

    IMMEDIATE = "immediate"
    DEFERRED = "deferred"
    LAZY = "lazy"


class PmapStats:
    """Operation counters for one pmap (reported by benchmarks)."""

    def __init__(self) -> None:
        self.enters = 0
        self.removes = 0
        self.protects = 0
        self.forgets = 0

    def __repr__(self) -> str:
        return (f"PmapStats(enters={self.enters}, removes={self.removes}, "
                f"protects={self.protects}, forgets={self.forgets})")


class PmapSystem:
    """Machine-wide machine-dependent state.

    Owns the pv (physical-to-virtual) table: for each Mach frame, the
    list of ``(pmap, vaddr)`` mappings currently installed, which is what
    makes ``pmap_remove_all(phys)`` and ``pmap_copy_on_write(phys)``
    possible.  Also owns reference/modify bit state and TLB shootdowns.
    """

    def __init__(self, machine: Machine,
                 strategy: ShootdownStrategy = ShootdownStrategy.IMMEDIATE
                 ) -> None:
        self.machine = machine
        self.strategy = strategy
        self.page_size = machine.page_size
        self._pv: dict[int, list[tuple["Pmap", int]]] = {}
        self._referenced: set[int] = set()
        self._modified: set[int] = set()
        #: Scratch space for MMU models with machine-wide structures
        #: (the RT PC's single inverted page table, SUN 3 contexts).
        self.md_shared: dict[str, object] = {}
        #: Which CPU the kernel is "running on" for shootdown purposes.
        self.current_cpu_id = 0
        self.shootdowns = 0
        self.ipis_sent = 0
        self.deferred_flushes = 0
        #: Debug hook (``repro.analysis.invariants``): called with no
        #: arguments after every shootdown and ``pmap_update``.  None
        #: (the default) costs nothing.
        self.debug_hook = None
        #: The machine's instrumentation bus; shootdowns publish a
        #: ``pmap/shootdown`` event *before* any flush lands, so a
        #: happens-before checker sees the invalidation window open
        #: first.
        self.events = machine.events

    # ------------------------------------------------------------------
    # Reference / modify bits (maintained by the simulated MMU)
    # ------------------------------------------------------------------

    def _frame(self, paddr: int) -> int:
        return paddr - paddr % self.page_size

    def note_access(self, paddr: int, write: bool) -> None:
        """Called by the MMU on every successful translation."""
        frame = self._frame(paddr)
        self._referenced.add(frame)
        if write:
            self._modified.add(frame)

    def is_referenced(self, phys: int) -> bool:
        """Hardware reference bit for the frame."""
        return self._frame(phys) in self._referenced

    def clear_reference(self, phys: int) -> None:
        """Clear the frame's hardware reference bit."""
        self._referenced.discard(self._frame(phys))

    def is_modified(self, phys: int) -> bool:
        """Hardware modify bit for the frame."""
        return self._frame(phys) in self._modified

    def clear_modify(self, phys: int) -> None:
        """Clear the frame's hardware modify bit."""
        self._modified.discard(self._frame(phys))

    # ------------------------------------------------------------------
    # Physical-to-virtual table
    # ------------------------------------------------------------------

    def pv_enter(self, pmap: "Pmap", vaddr: int, phys: int) -> None:
        """Record a (pmap, vaddr) mapping of a frame."""
        frame = self._frame(phys)
        mappings = self._pv.setdefault(frame, [])
        key = (pmap, vaddr)
        if key not in mappings:
            mappings.append(key)

    def pv_remove(self, pmap: "Pmap", vaddr: int, phys: int) -> None:
        """Forget a (pmap, vaddr) mapping of a frame."""
        frame = self._frame(phys)
        mappings = self._pv.get(frame)
        if mappings is None:
            return
        try:
            mappings.remove((pmap, vaddr))
        except ValueError:
            pass
        if not mappings:
            del self._pv[frame]

    def mappings_of(self, phys: int) -> list[tuple["Pmap", int]]:
        """All (pmap, vaddr) pairs currently mapping the frame at
        *phys* (a copy; safe to mutate the table while iterating)."""
        return list(self._pv.get(self._frame(phys), ()))

    def remove_all(self, phys: int) -> None:
        """``pmap_remove_all``: remove the frame from every pmap
        ("[pageout]")."""
        for pmap, vaddr in self.mappings_of(phys):
            pmap.remove(vaddr, vaddr + self.page_size)

    def copy_on_write(self, phys: int) -> None:
        """``pmap_copy_on_write``: revoke write access in every pmap
        ("[virtual copy of shared pages]")."""
        self.page_protect(phys, VMProt.READ | VMProt.EXECUTE)

    def page_protect(self, phys: int, prot: VMProt) -> None:
        """Lower the protection of every mapping of one frame."""
        if prot is VMProt.NONE:
            self.remove_all(phys)
            return
        for pmap, vaddr in self.mappings_of(phys):
            pmap.protect(vaddr, vaddr + self.page_size, prot)

    # ------------------------------------------------------------------
    # Physical page helpers (Table 3-3: pmap_zero_page, pmap_copy_page)
    # ------------------------------------------------------------------

    def zero_page(self, phys: int) -> None:
        """``pmap_zero_page``: zero-fill one frame."""
        self.machine.clock.charge(
            self.machine.costs.zero_cost(self.page_size))
        self.machine.physmem.zero_frame(self._frame(phys))

    def copy_page(self, src: int, dst: int) -> None:
        """``pmap_copy_page``: copy one frame."""
        self.machine.clock.charge(
            self.machine.costs.copy_cost(self.page_size))
        self.machine.physmem.copy_frame(self._frame(src), self._frame(dst))

    # ------------------------------------------------------------------
    # TLB shootdown (Section 5.2)
    # ------------------------------------------------------------------

    def shootdown(self, pmap: "Pmap", start: int, end: int,
                  force: bool = False) -> None:
        """Make a mapping change visible to every CPU's TLB.

        *force* overrides the LAZY strategy — used by the pageout path,
        which may never reuse a frame while any TLB can still reach it.
        """
        self.shootdowns += 1
        strategy = self.strategy
        if force and strategy is ShootdownStrategy.LAZY:
            strategy = ShootdownStrategy.IMMEDIATE
        # Plan first, then execute: an observer must see the window
        # open before any flush lands on any CPU.
        plan: list[tuple] = []
        for cpu in self.machine.cpus:
            if cpu.cpu_id not in pmap.cpus_tainted:
                continue
            if cpu.cpu_id == self.current_cpu_id:
                plan.append((cpu, "local"))
            elif strategy is ShootdownStrategy.IMMEDIATE:
                plan.append((cpu, "ipi"))
            elif strategy is ShootdownStrategy.DEFERRED:
                plan.append((cpu, "deferred"))
            else:
                plan.append((cpu, "lazy"))
        if self.events.active:
            self.events.emit(
                "pmap", "shootdown",
                pmap=pmap, start=start, end=end,
                strategy=strategy, declared=self.strategy, forced=force,
                actions=tuple((cpu.cpu_id, action)
                              for cpu, action in plan))
            # The stage span covers plan *execution* only (the
            # synchronous flush/IPI cost); the ``pmap/shootdown``
            # instant above stays first — the race detector's window
            # must open before any flush lands.
            with self.events.span("stage", "shootdown",
                                  cpus=len(plan)):
                self._execute_plan(plan, pmap, start, end)
        else:
            self._execute_plan(plan, pmap, start, end)
        if self.debug_hook is not None:
            self.debug_hook()

    def _execute_plan(self, plan: list[tuple], pmap: "Pmap", start: int,
                      end: int) -> None:
        """Carry out a shootdown plan.  The local CPU flushes inline;
        only a remote CPU's flush, which runs later, needs a closure."""
        clock = self.machine.clock
        costs = self.machine.costs
        for cpu, action in plan:
            if action == "local":
                clock.charge(costs.tlb_flush_entry_us)
                cpu.tlb.invalidate_range(pmap, start, end)
                continue
            if action == "lazy":
                # Temporary inconsistency is allowed; the entry dies
                # whenever that CPU next switches pmaps or takes a
                # flush.
                continue

            def flush(cpu=cpu) -> None:
                clock.charge(costs.tlb_flush_entry_us)
                cpu.tlb.invalidate_range(pmap, start, end)

            if action == "ipi":
                self.ipis_sent += 1
                cpu.deliver_ipi(flush)
            else:
                self.deferred_flushes += 1
                cpu.defer_flush(flush)

    def update(self) -> None:
        """``pmap_update``: bring the whole pmap system up to date —
        drain every deferred flush on every CPU now."""
        for cpu in self.machine.cpus:
            if cpu.has_deferred_flushes:
                cpu.timer_tick()
        if self.debug_hook is not None:
            self.debug_hook()


class Pmap(abc.ABC):
    """A physical address map: the machine-dependent mapping structure
    for one task (or the kernel).

    Concrete subclasses implement only the single-hardware-page hooks
    (``_hw_enter``/``_hw_remove``/``_hw_protect``/``_hw_lookup``) and
    declare their table shape: ``TABLE_SPAN`` bytes of virtual space
    per second-level table, whose entries live in
    ``self._tables[vaddr // TABLE_SPAN][vpn]``.  This base class handles
    Mach-page-to-hardware-page fan-out, pv-table maintenance, cost
    accounting, statistics, TLB shootdown and the walk over the tables,
    so each machine's module stays small — the paper measures the VAX
    pmap module at "approximately 6K bytes ... about the size of a
    device driver."  A pmap without a two-level table (the RT PC's
    inverted table) overrides ``_hw_iter`` instead.

    Range operations work in whole Mach pages (the pv table and the MI
    layer know no smaller unit) and cost what the range holds, not what
    the pmap holds: a one-Mach-page operation probes only its own
    hardware pages, and a wider one walks only the tables it overlaps.
    """

    #: Bytes of virtual space one second-level table maps, a multiple
    #: of the hardware page size; None for a pmap that overrides
    #: :meth:`_hw_iter`.
    TABLE_SPAN: Optional[int] = None

    def __init__(self, system: PmapSystem, name: str = "") -> None:
        self.system = system
        self.machine = system.machine
        self.pmap_id = next(_pmap_ids)
        self.name = name or f"pmap{self.pmap_id}"
        self.ref_count = 1
        self.page_size = system.machine.page_size
        self.hw_page_size = system.machine.hw_page_size
        #: CPUs this pmap is currently active on.
        self.cpus_using: set[int] = set()
        #: CPUs whose TLBs may still hold entries of this pmap.
        self.cpus_tainted: set[int] = set()
        self.stats = PmapStats()
        #: table index (``vaddr // TABLE_SPAN``) -> {vpn -> MD entry};
        #: a table exists only while it holds an entry.
        self._tables: dict[int, dict[int, tuple]] = {}

    # -- reference counting (pmap_reference / pmap_destroy) -------------

    def reference(self) -> "Pmap":
        """Take an additional reference; returns self."""
        self.ref_count += 1
        return self

    def destroy(self) -> None:
        """``pmap_destroy``: drop a reference; tear down at zero."""
        self.ref_count -= 1
        if self.ref_count <= 0:
            self.remove(0, self.machine.spec.va_limit)
            self._hw_destroy()

    # -- machine-dependent hooks -----------------------------------------

    @abc.abstractmethod
    def _hw_enter(self, vaddr: int, paddr: int, prot: VMProt,
                  wired: bool) -> None:
        """Install one hardware-page mapping in the MD structure."""

    @abc.abstractmethod
    def _hw_remove(self, vaddr: int) -> Optional[int]:
        """Remove one hardware-page mapping; returns the physical
        address it mapped, or None when no mapping existed."""

    @abc.abstractmethod
    def _hw_protect(self, vaddr: int, prot: VMProt) -> bool:
        """Change one mapping's protection; returns False when no
        mapping exists at *vaddr*."""

    @abc.abstractmethod
    def _hw_lookup(self, vaddr: int) -> Optional[tuple[int, VMProt]]:
        """(hardware-frame physical base, protection) or None."""

    def _hw_iter(self, start: int, end: int):
        """Yield, in ascending order, the virtual addresses (hardware-
        page aligned) of every mapping this pmap holds inside
        [start, end).

        Visits only the tables that overlap the range (or the sorted
        table indices, when the range spans more tables than exist), and
        inside each probes the overlapping vpns (or sorts the table,
        when it holds fewer entries than the range spans)."""
        hw = self.hw_page_size
        per_table = self.TABLE_SPAN // hw
        first = start // hw
        last = -(-end // hw)
        if last <= first:
            return
        tables = self._tables
        lo = first // per_table
        hi = (last - 1) // per_table + 1
        if hi - lo > len(tables):
            indices = [i for i in sorted(tables) if lo <= i < hi]
        else:
            indices = [i for i in range(lo, hi) if i in tables]
        for index in indices:
            table = tables[index]
            low = max(first, index * per_table)
            high = min(last, (index + 1) * per_table)
            if len(table) < high - low:
                for vpn in sorted(table):
                    if low <= vpn < high:
                        yield vpn * hw
            else:
                for vpn in range(low, high):
                    if vpn in table:
                        yield vpn * hw

    def _mach_bounds(self, start: int, end: int) -> tuple[int, int]:
        """[start, end) widened to whole Mach pages (empty stays
        empty)."""
        page = self.page_size
        first = start - start % page
        if end <= start:
            return first, first
        return first, end + (-end) % page

    def _hw_candidates(self, first: int, last: int):
        """The hardware-page addresses to visit in the Mach-page-aligned
        range [first, last): one Mach page probes its own hardware
        pages (the ``_hw_*`` hooks answer None for holes); a wider
        range walks only the mappings it holds."""
        if last - first == self.page_size:
            return range(first, last, self.hw_page_size)
        return list(self._hw_iter(first, last))

    def _hw_destroy(self) -> None:
        """Release machine-dependent storage (page tables etc.)."""

    # -- the exported interface (Table 3-3) ------------------------------

    def enter(self, vaddr: int, paddr: int, prot: VMProt,
              wired: bool = False) -> None:
        """``pmap_enter``: map one *Mach* page ("[page fault]").

        Fans out to as many hardware pages as the boot-time page size
        spans, maintains the pv table, and charges PTE-write costs.
        """
        self.stats.enters += 1
        events = self.machine.events
        if events.active:
            with events.span("pmap", "enter", pmap=self.name,
                             vaddr=vaddr):
                self._enter_one(vaddr, paddr, prot, wired)
        else:
            self._enter_one(vaddr, paddr, prot, wired)

    def _enter_one(self, vaddr: int, paddr: int, prot: VMProt,
                   wired: bool) -> None:
        self.remove(vaddr, vaddr + self.page_size, shoot=True)
        self._enter_mapping(vaddr, paddr, prot, wired)

    def _enter_mapping(self, vaddr: int, paddr: int, prot: VMProt,
                       wired: bool) -> None:
        """Write one Mach page's worth of hardware PTEs and maintain
        the pv table — the removal-free core shared by :meth:`enter`
        and :meth:`enter_batch`."""
        costs = self.machine.costs
        clock = self.machine.clock
        for off in range(0, self.page_size, self.hw_page_size):
            clock.charge(costs.pte_write_us)
            self._hw_enter(vaddr + off, paddr + off, prot, wired)
        self.system.pv_enter(self, vaddr, paddr)

    def enter_batch(self, mappings) -> None:
        """``pmap_enter_batch``: enter a *run* of consecutive Mach-page
        mappings in one pass.

        *mappings* is a sequence of ``(vaddr, paddr, prot, wired)``
        tuples for consecutive Mach pages.  Equivalent to calling
        :meth:`enter` once per tuple, except the whole run costs one
        removal sweep and — when old mappings were displaced — at most
        **one** TLB shootdown covering the run, instead of one per
        page.  This is the pmap half of the fault fast lane
        (:func:`repro.core.fault.vm_fault_batch`).
        """
        if not mappings:
            return
        self.stats.enters += len(mappings)
        start = mappings[0][0]
        end = mappings[-1][0] + self.page_size
        events = self.machine.events
        if events.active:
            with events.span("pmap", "enter_batch", pmap=self.name,
                             start=start, end=end,
                             pages=len(mappings)):
                self._enter_batch_body(mappings, start, end)
        else:
            self._enter_batch_body(mappings, start, end)

    def _enter_batch_body(self, mappings, start: int, end: int) -> None:
        # One displacement sweep for the whole run; the single
        # shootdown below covers every page removed here.
        removed_any = self.remove(start, end, shoot=False)
        for vaddr, paddr, prot, wired in mappings:
            self._enter_mapping(vaddr, paddr, prot, wired)
        if removed_any:
            self.system.shootdown(self, start, end)

    def remove(self, start: int, end: int, shoot: bool = True) -> bool:
        """``pmap_remove``: remove all mappings in the Mach pages
        [start, end) overlaps ("[Used in memory deallocation]").
        Returns whether any mapping was removed (callers passing
        ``shoot=False`` owe a shootdown when it returns True)."""
        self.stats.removes += 1
        first, last = self._mach_bounds(start, end)
        page = self.page_size
        removed_any = False
        pv_va = None
        for va in self._hw_candidates(first, last):
            paddr = self._hw_remove(va)
            if paddr is None:
                continue
            removed_any = True
            mach_va = va - va % page
            if mach_va != pv_va:
                # One pv entry per Mach page, however many hardware
                # pages it spans.
                pv_va = mach_va
                self.system.pv_remove(self, mach_va, paddr)
        if removed_any and shoot:
            self.system.shootdown(self, first, last)
        return removed_any

    def protect(self, start: int, end: int, prot: VMProt) -> None:
        """``pmap_protect``: restrict protection on the Mach pages
        [start, end) overlaps.

        A protection of NONE removes the mappings entirely.  Each
        existing mapping's protection is *intersected* with *prot*,
        never raised: permission increases are always granted lazily at
        fault time, and raising here could silently make a mapping more
        permissive than the machine-independent layer sanctions (e.g.
        re-arming write access on a copy-on-write-shared page, or
        granting execute where the map entry allows none).
        """
        if prot is VMProt.NONE:
            self.remove(start, end)
            return
        self.stats.protects += 1
        first, last = self._mach_bounds(start, end)
        changed = False
        for va in self._hw_candidates(first, last):
            hit = self._hw_lookup(va)
            if hit is None:
                continue
            lowered = hit[1] & prot
            if lowered == hit[1]:
                continue
            if self._hw_protect(va, lowered):
                changed = True
                self.machine.clock.charge(self.machine.costs.pte_write_us)
        if changed:
            # Lowering permissions must reach remote TLBs; the pageout
            # and COW paths depend on it.
            self.system.shootdown(self, first, last)

    def extract(self, vaddr: int) -> Optional[int]:
        """``pmap_extract``: convert virtual to physical (or None)."""
        hit = self._hw_lookup(vaddr)
        if hit is None:
            return None
        paddr, _ = hit
        return paddr + (vaddr % self.hw_page_size)

    def access(self, vaddr: int) -> bool:
        """``pmap_access``: report if virtual address is mapped."""
        return self._hw_lookup(vaddr) is not None

    def activate(self, thread, cpu) -> None:
        """``pmap_activate``: set pmap/thread to run on cpu.

        "Full information as to which processors are currently using
        which maps ... is provided to pmap from machine-independent
        code."
        """
        self.machine.clock.charge(self.machine.costs.context_switch_us)
        previous = cpu.active_pmap
        if previous is not None and previous is not self:
            previous.deactivate(cpu.active_thread, cpu)
        cpu.active_pmap = self
        cpu.active_thread = thread
        self.cpus_using.add(cpu.cpu_id)
        if self.system.strategy is ShootdownStrategy.LAZY:
            # The lazy strategy relies on flush-at-activate to bound
            # how long stale entries survive.
            cpu.tlb.invalidate_pmap(self)
        self.cpus_tainted.add(cpu.cpu_id)

    def deactivate(self, thread, cpu) -> None:
        """``pmap_deactivate``: map/thread are done on cpu.  The CPU's
        TLB may still hold entries (it stays *tainted*)."""
        self.cpus_using.discard(cpu.cpu_id)
        if cpu.active_pmap is self:
            cpu.active_pmap = None
            cpu.active_thread = None

    # -- optional interface (Table 3-4) -----------------------------------

    def copy(self, src_pmap: "Pmap", dst_addr: int, length: int,
             src_addr: int) -> None:
        """``pmap_copy``: optionally duplicate mappings from another
        pmap.  The default does nothing — mappings are rebuilt at fault
        time ("These routines need not perform any hardware function")."""

    def pageable(self, start: int, end: int, pageable: bool) -> None:
        """``pmap_pageable``: advise pageability of a region (no-op by
        default)."""

    # -- support used by the simulation ------------------------------------

    def hw_lookup(self, vaddr: int) -> Optional[tuple[int, VMProt]]:
        """Hardware-table walk used by the simulated MMU on TLB miss;
        returns (physical address for *vaddr*, protection) or None."""
        hit = self._hw_lookup(vaddr)
        if hit is None:
            return None
        paddr, prot = hit
        return paddr + (vaddr % self.hw_page_size), prot

    def translate_fault_type(self, vaddr: int,
                             reported: FaultType) -> FaultType:
        """Hook for fault-report errata (overridden by the NS32082
        pmap); returns the fault type MI code should believe."""
        return reported

    def forget(self, vaddr: int) -> None:
        """Throw away one Mach-page mapping for space/speed — allowed
        "at almost any time" by the MD/MI contract.  Counted separately
        from removes so benchmarks can observe GC behaviour."""
        self.stats.forgets += 1
        self.remove(vaddr, vaddr + self.page_size)

    def resident_mappings(self) -> int:
        """How many Mach-page mappings this pmap currently holds (for
        tests; derived from the pv table)."""
        count = 0
        for mappings in self.system._pv.values():
            count += sum(1 for pmap, _ in mappings if pmap is self)
        return count

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


# ---------------------------------------------------------------------------
# Module-level functions with the paper's exact spelling (Table 3-3/3-4).
# These are thin wrappers over the methods above, provided so code and
# documentation can read like the paper's interface listing.
# ---------------------------------------------------------------------------

def pmap_create(system: PmapSystem, pmap_class, name: str = "") -> Pmap:
    """``pmap_create``: create a new physical map."""
    return pmap_class(system, name=name)


def pmap_reference(pmap: Pmap) -> Pmap:
    """Table 3-3 pmap_reference: add a reference to a physical map."""
    return pmap.reference()


def pmap_destroy(pmap: Pmap) -> None:
    """Table 3-3 pmap_destroy: dereference, destroy when none remain."""
    pmap.destroy()


def pmap_enter(pmap: Pmap, v: int, p: int, prot: VMProt,
               wired: bool = False) -> None:
    """Table 3-3 pmap_enter: enter mapping [page fault]."""
    pmap.enter(v, p, prot, wired)


def pmap_enter_batch(pmap: Pmap, mappings) -> None:
    """Fast-lane extension of Table 3-3 pmap_enter: enter a run of
    consecutive mappings with one removal sweep and at most one
    shootdown [batched page fault]."""
    pmap.enter_batch(mappings)


def pmap_remove(pmap: Pmap, start: int, end: int) -> None:
    """Table 3-3 pmap_remove: remove a virtual range [memory deallocation]."""
    pmap.remove(start, end)


def pmap_remove_all(system: PmapSystem, phys: int) -> None:
    """Table 3-3 pmap_remove_all: remove a physical page from all maps [pageout]."""
    system.remove_all(phys)


def pmap_copy_on_write(system: PmapSystem, phys: int) -> None:
    """Table 3-3 pmap_copy_on_write: revoke write access in all maps."""
    system.copy_on_write(phys)


def pmap_protect(pmap: Pmap, start: int, end: int, prot: VMProt) -> None:
    """Table 3-3 pmap_protect: set protection on a range."""
    pmap.protect(start, end, prot)


def pmap_extract(pmap: Pmap, va: int) -> Optional[int]:
    """Table 3-3 pmap_extract: convert virtual to physical."""
    return pmap.extract(va)


def pmap_access(pmap: Pmap, va: int) -> bool:
    """Table 3-3 pmap_access: report if a virtual address is mapped."""
    return pmap.access(va)


def pmap_update(system: PmapSystem) -> None:
    """Table 3-3 pmap_update: bring the pmap system up to date."""
    system.update()


def pmap_activate(pmap: Pmap, thread, cpu) -> None:
    """Table 3-3 pmap_activate: set pmap/thread to run on a cpu."""
    pmap.activate(thread, cpu)


def pmap_deactivate(pmap: Pmap, thread, cpu) -> None:
    """Table 3-3 pmap_deactivate: map/thread are done on a cpu."""
    pmap.deactivate(thread, cpu)


def pmap_zero_page(system: PmapSystem, phys: int) -> None:
    """Table 3-3 pmap_zero_page: zero-fill a physical page."""
    system.zero_page(phys)


def pmap_copy_page(system: PmapSystem, src: int, dst: int) -> None:
    """Table 3-3 pmap_copy_page: copy a physical page."""
    system.copy_page(src, dst)


def pmap_copy(dst_pmap: Pmap, src_pmap: Pmap, dst_addr: int, length: int,
              src_addr: int) -> None:
    """Table 3-4 pmap_copy (optional): duplicate virtual mappings."""
    dst_pmap.copy(src_pmap, dst_addr, length, src_addr)


def pmap_pageable(pmap: Pmap, start: int, end: int, pageable: bool) -> None:
    """Table 3-4 pmap_pageable (optional): advise pageability."""
    pmap.pageable(start, end, pageable)
