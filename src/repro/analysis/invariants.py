"""Runtime sanitizer: is the machine-dependent layer telling the truth?

The MD/MI contract (Section 3.6, quoted in ``pmap/interface.py``) lets
the pmap layer *forget* mappings at almost any time, but never *invent*
or *retain* one the machine-independent structures do not sanction, and
never with a more permissive protection.  :func:`check_all` audits a
quiescent kernel against that contract:

* every translation in every pmap's machine-dependent structures maps a
  virtual address the owning task's address map covers, to the frame
  the resident shadow-chain walk produces, with protection no more
  permissive than the effective map-entry protection — and never
  writable while the entry is ``needs_copy`` or the page still lives in
  a backing object of the chain;
* every per-CPU TLB entry is a subset of the MD structures (strategy
  aware: inside a range a LAZY shootdown left owing until the next
  activate, and inside an open DEFERRED window, staleness is sanctioned
  by Section 5.2 and skipped — once the window closes, a surviving
  stale entry is a shootdown bug);
* the pv (physical-to-virtual) table and the MD structures describe the
  same set of live mappings, over allocated frames only;
* shadow-chain reference counts equal the number of actual referents
  (map entries, shadow pointers, the object cache, in-flight
  out-of-line message holders);
* the resident page table's queues/hash/object lists agree, every map's
  structural invariants hold, and no physical frame is allocated
  outside the resident table (frame leak) or vice versa.

All checks are side-effect free: they never take the clock-charging
``lookup`` paths, never mutate lookup hints or counters, and never
touch pager state — so an enabled sanitizer perturbs no simulated cost
measurement, only host time.

:func:`install_sanitizer` arms the kernel's debug hooks so sweeps run
after every fault, task lifecycle event, pageout pass, and shootdown;
the hooks are ``None`` by default and cost nothing disabled.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from repro.core.constants import VMProt


@dataclass(frozen=True)
class Violation:
    """One broken invariant."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


class SanitizerError(AssertionError):
    """Raised by :func:`assert_all` when any invariant is broken."""

    def __init__(self, violations: list[Violation]) -> None:
        self.violations = violations
        lines = "\n  ".join(str(v) for v in violations)
        super().__init__(
            f"{len(violations)} VM invariant violation(s):\n  {lines}")


# ---------------------------------------------------------------------------
# Side-effect-free resolution helpers
# ---------------------------------------------------------------------------

def _resolve(vm_map, address: int):
    """Resolve *address* in *vm_map* without touching hints, counters
    or the clock; descends one sharing-map level like fault-time lookup.

    Returns ``(effective_protection, needs_copy, vm_object, offset)``
    or None when nothing is mapped there.  ``vm_object`` may be None
    (lazily materialized zero-fill with no object yet).
    """
    for entry in vm_map.entries():
        if entry.start > address:
            break
        if not entry.contains(address):
            continue
        if entry.is_sub_map:
            sub_addr = entry.offset_of(address)
            for leaf in entry.submap.entries():
                if leaf.start > sub_addr:
                    break
                if leaf.contains(sub_addr):
                    return (entry.protection & leaf.protection,
                            entry.needs_copy or leaf.needs_copy,
                            leaf.vm_object, leaf.offset_of(sub_addr))
            return None
        return (entry.protection, entry.needs_copy,
                entry.vm_object, entry.offset_of(address))
    return None


def _chain_page(obj, offset: int):
    """Walk the shadow chain from (*obj*, *offset*); returns
    ``(page, level)`` for the first resident page found (level 0 = the
    object itself) or ``(None, -1)``.  Uses only the side-effect-free
    per-object page dict, never the counting resident-table hash."""
    level = 0
    while obj is not None:
        page = obj.resident_page(offset)
        if page is not None:
            return page, level
        offset += obj.shadow_offset
        obj = obj.shadow
        level += 1
    return None, -1


def _live_pmaps(kernel) -> dict[int, object]:
    """id(pmap) -> pmap for the kernel pmap and every live task."""
    live = {id(kernel.kernel_pmap): kernel.kernel_pmap}
    for task in kernel.tasks:
        live[id(task.pmap)] = task.pmap
    return live


# ---------------------------------------------------------------------------
# Individual audits
# ---------------------------------------------------------------------------

def _check_structures(kernel, out: list[Violation]) -> None:
    """Resident-table cross-links and per-map structural invariants."""
    try:
        kernel.vm.resident.check_consistency()
    except AssertionError as exc:
        out.append(Violation("resident-table", str(exc)))
    seen_submaps: dict[int, object] = {}
    maps = [(f"task {task.name}", task.vm_map) for task in kernel.tasks]
    maps += [(f"ool holder@{hid:#x}", holder)
             for hid, holder in getattr(kernel, "_ool_in_flight",
                                        {}).items()]
    for label, vm_map in list(maps):
        for entry in vm_map.entries():
            if entry.is_sub_map and id(entry.submap) not in seen_submaps:
                seen_submaps[id(entry.submap)] = entry.submap
                maps.append((f"sharing map@{id(entry.submap):#x}",
                             entry.submap))
    for label, vm_map in maps:
        try:
            vm_map.check_invariants()
        except AssertionError as exc:
            out.append(Violation("map-structure", f"{label}: {exc}"))


def _check_frames(kernel, out: list[Violation]) -> None:
    """The frame store and the resident table must agree on which
    frames are allocated (frames leave ``physmem`` only through
    ``resident.allocate``)."""
    allocated = set(kernel.machine.physmem._allocated)
    tabled = set(kernel.vm.resident._pages)
    for phys in sorted(allocated - tabled):
        out.append(Violation(
            "frame-leak",
            f"frame {phys:#x} allocated but unknown to the resident "
            f"page table"))
    for phys in sorted(tabled - allocated):
        out.append(Violation(
            "frame-ghost",
            f"resident page entry for {phys:#x} but the frame is free"))


def _check_refcounts(kernel, out: list[Violation]) -> None:
    """Every reachable object's ref_count equals its referent count.

    Referents: map entries (task maps, sharing maps, in-flight OOL
    holding maps), shadow pointers, and the object cache.
    """
    object_refs: Counter = Counter()
    submap_refs: Counter = Counter()
    submaps: dict[int, object] = {}
    roots = [task.vm_map for task in kernel.tasks]
    roots += list(getattr(kernel, "_ool_in_flight", {}).values())

    def scan_map(vm_map) -> None:
        for entry in vm_map.entries():
            if entry.is_sub_map:
                submap_refs[id(entry.submap)] += 1
                if id(entry.submap) not in submaps:
                    submaps[id(entry.submap)] = entry.submap
            elif entry.vm_object is not None:
                object_refs[id(entry.vm_object)] += 1

    for vm_map in roots:
        scan_map(vm_map)
    for submap in list(submaps.values()):
        scan_map(submap)

    stack = []
    for vm_map in roots + list(submaps.values()):
        for entry in vm_map.entries():
            if entry.vm_object is not None:
                stack.append(entry.vm_object)
    stack.extend(kernel.vm.objects._cache.values())
    seen: dict[int, object] = {}
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if obj.shadow is not None:
            object_refs[id(obj.shadow)] += 1
            stack.append(obj.shadow)

    for obj_id, obj in seen.items():
        if obj.terminated:
            out.append(Violation(
                "object-terminated",
                f"terminated {obj!r} still reachable"))
        expected = object_refs[obj_id]
        if obj.ref_count != expected:
            out.append(Violation(
                "object-refcount",
                f"{obj!r}: ref_count={obj.ref_count} but {expected} "
                f"referents found"))
    for submap_id, submap in submaps.items():
        if submap.ref_count != submap_refs[submap_id]:
            out.append(Violation(
                "sharing-map-refcount",
                f"{submap!r}: ref_count={submap.ref_count} but "
                f"{submap_refs[submap_id]} entries point at it"))


def _check_md_subset(kernel, out: list[Violation]
                     ) -> dict[tuple[int, int], int]:
    """Every MD translation is a subset of MI truth.

    Returns the Mach-level mappings discovered, as
    ``{(id(pmap), mach_va): mach_frame}`` for the pv cross-check.
    """
    page_size = kernel.page_size
    va_limit = kernel.spec.va_limit
    discovered: dict[tuple[int, int], int] = {}
    for task in kernel.tasks:
        pmap = task.pmap
        for hw_va in list(pmap._hw_iter(0, va_limit)):
            hit = pmap._hw_lookup(hw_va)
            if hit is None:
                continue
            hw_frame, hw_prot = hit
            mach_va = hw_va - hw_va % page_size
            discovered.setdefault((id(pmap), mach_va),
                                  hw_frame - (hw_va - mach_va))
            resolved = _resolve(task.vm_map, mach_va)
            if resolved is None:
                out.append(Violation(
                    "md-unsanctioned-mapping",
                    f"{pmap!r} maps va {hw_va:#x} but task "
                    f"{task.name}'s address map has no entry there "
                    f"(pmap invented or retained a mapping)"))
                continue
            eff_prot, needs_copy, obj, offset = resolved
            if hw_prot & ~eff_prot:
                out.append(Violation(
                    "md-protection-too-permissive",
                    f"{pmap!r} va {hw_va:#x}: hardware allows "
                    f"{hw_prot!r} but the map entry allows only "
                    f"{eff_prot!r}"))
            if obj is None:
                out.append(Violation(
                    "md-maps-lazy-region",
                    f"{pmap!r} va {hw_va:#x} maps a region that has "
                    f"no memory object yet (nothing to map)"))
                continue
            page, level = _chain_page(obj, offset)
            if page is None:
                out.append(Violation(
                    "md-maps-nonresident",
                    f"{pmap!r} va {hw_va:#x}: no resident page in "
                    f"{obj!r}'s shadow chain at offset {offset:#x}"))
                continue
            if page.busy or page.absent:
                continue   # in transit: the fault path owns it
            expected = page.phys_addr + (hw_va - mach_va)
            if hw_frame != expected:
                out.append(Violation(
                    "md-wrong-frame",
                    f"{pmap!r} va {hw_va:#x} -> frame {hw_frame:#x} "
                    f"but MI truth says {expected:#x}"))
            if (hw_prot & VMProt.WRITE) and (needs_copy or level > 0):
                why = ("the entry is needs_copy" if needs_copy
                       else f"the page lives {level} level(s) down "
                            f"the shadow chain")
                out.append(Violation(
                    "md-writable-cow",
                    f"{pmap!r} va {hw_va:#x} is writable but {why} — "
                    f"a write would corrupt shared data"))
    return discovered


def _check_pv(kernel, md_mappings: dict[tuple[int, int], int],
              out: list[Violation]) -> None:
    """The pv table and the MD structures agree, both directions."""
    system = kernel.pmap_system
    resident_frames = kernel.vm.resident._pages
    pv_seen: set[tuple[int, int]] = set()
    for frame, mappings in system._pv.items():
        if frame not in resident_frames:
            out.append(Violation(
                "pv-free-frame",
                f"pv table records mappings of frame {frame:#x}, "
                f"which is not resident"))
        for pmap, vaddr in mappings:
            pv_seen.add((id(pmap), vaddr))
            hit = pmap._hw_lookup(vaddr)
            if hit is None:
                out.append(Violation(
                    "pv-dangling",
                    f"pv table says {pmap!r} maps {vaddr:#x} -> "
                    f"{frame:#x} but the pmap holds no translation"))
            elif hit[0] != frame:
                out.append(Violation(
                    "pv-wrong-frame",
                    f"pv table says {pmap!r} maps {vaddr:#x} -> "
                    f"{frame:#x} but the pmap maps it to "
                    f"{hit[0]:#x}"))
    for (pmap_id, mach_va), frame in md_mappings.items():
        if (pmap_id, mach_va) not in pv_seen:
            out.append(Violation(
                "pv-missing",
                f"pmap id {pmap_id:#x} maps {mach_va:#x} -> "
                f"{frame:#x} but the pv table has no record "
                f"(pmap_remove_all would miss it)"))


def check_tlbs(kernel) -> list[Violation]:
    """Audit every per-CPU TLB against the MD structures.

    Strategy-aware, per Section 5.2: under LAZY, an entry inside a
    range a lazy shootdown left the CPU owing (``cpu.lazy_owed``) is
    sanctioned until the pmap's next activate-time flush; under
    DEFERRED a CPU with queued flushes is inside an open window and is
    skipped.  Any other entry that disagrees with its pmap's structures
    is a shootdown bug.  The taint check
    (a CPU holding entries for a pmap must appear in that pmap's
    ``cpus_tainted``) applies under every strategy, since shootdown
    consults only tainted CPUs.

    Safe to call at any time — it never consults the (possibly
    mid-mutation) machine-independent maps, only TLB vs. pmap.
    """
    out: list[Violation] = []
    live = _live_pmaps(kernel)
    hw_page = kernel.machine.hw_page_size
    for cpu in kernel.machine.cpus:
        window_open = cpu.has_deferred_flushes
        for tag, vpn, entry_paddr, entry_prot in cpu.tlb.snapshot():
            vaddr = vpn * hw_page
            pmap = live.get(tag)
            if pmap is not None and cpu.cpu_id not in pmap.cpus_tainted:
                out.append(Violation(
                    "tlb-untracked-cpu",
                    f"cpu{cpu.cpu_id} caches {pmap!r} va {vaddr:#x} "
                    f"but is not in its cpus_tainted set — shootdown "
                    f"would never reach this entry"))
            if window_open or any(
                    owed_tag == tag and start // hw_page <= vpn
                    < -(-end // hw_page)
                    for owed_tag, start, end in cpu.lazy_owed):
                continue
            if pmap is None:
                out.append(Violation(
                    "tlb-orphaned",
                    f"cpu{cpu.cpu_id} holds an entry (va {vaddr:#x}, "
                    f"{entry_prot!r}) for a pmap that no longer "
                    f"exists"))
                continue
            hit = pmap._hw_lookup(vaddr)
            if hit is None:
                out.append(Violation(
                    "tlb-stale",
                    f"cpu{cpu.cpu_id} TLB still maps {pmap!r} va "
                    f"{vaddr:#x} ({entry_prot!r}) after the pmap "
                    f"dropped it and the shootdown window closed"))
                continue
            md_frame, md_prot = hit
            if entry_paddr != md_frame:
                out.append(Violation(
                    "tlb-wrong-frame",
                    f"cpu{cpu.cpu_id} TLB maps {pmap!r} va "
                    f"{vaddr:#x} -> {entry_paddr:#x} but the pmap "
                    f"says {md_frame:#x}"))
            if entry_prot & ~md_prot:
                out.append(Violation(
                    "tlb-too-permissive",
                    f"cpu{cpu.cpu_id} TLB allows {entry_prot!r} at "
                    f"{pmap!r} va {vaddr:#x} but the pmap allows "
                    f"only {md_prot!r}"))
    return out


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def check_all(kernel) -> list[Violation]:
    """Run every audit against a quiescent *kernel*; returns all
    violations found (empty = the MD layer is telling the truth)."""
    out: list[Violation] = []
    _check_structures(kernel, out)
    _check_frames(kernel, out)
    _check_refcounts(kernel, out)
    md_mappings = _check_md_subset(kernel, out)
    _check_pv(kernel, md_mappings, out)
    out.extend(check_tlbs(kernel))
    return out


def assert_all(kernel) -> None:
    """:func:`check_all`, raising :class:`SanitizerError` on failure."""
    violations = check_all(kernel)
    if violations:
        raise SanitizerError(violations)


def install_sanitizer(kernel) -> None:
    """Arm the kernel's debug hooks: full sweeps after faults, task
    lifecycle events and pageout passes; TLB-only sweeps after every
    shootdown and ``pmap_update`` (safe mid-operation — see
    :func:`check_tlbs`)."""
    kernel.sanitize_hook = assert_all

    def tlb_hook() -> None:
        violations = check_tlbs(kernel)
        if violations:
            raise SanitizerError(violations)

    kernel.pmap_system.debug_hook = tlb_hook


def uninstall_sanitizer(kernel) -> None:
    """Disarm the hooks installed by :func:`install_sanitizer`."""
    kernel.sanitize_hook = None
    kernel.pmap_system.debug_hook = None
