"""SUN 3 pmap: segment maps and hardware contexts.

Section 5.1: "In the case of the SUN 3 a combination of segments and
page tables are used to create and manage per-task address maps up to
256 megabytes each.  The use of segments and page tables make it
possible to reasonably implement sparse addressing, but only 8 such
contexts may exist at any one time.  If there are more than 8 active
tasks, they compete for contexts, introducing additional page faults as
on the RT."

The SUN 3 MMU's mapping RAM holds translations only for pmaps that own
one of the (typically 8) hardware contexts.  A pmap without a context
has *no* hardware mappings; giving its context to another task wipes its
translations, so its pages must refault in.  ``context_steals`` counts
those evictions for the Section 5.1 ablation benchmark.

Conformance to the MI contract (Tables 3-3/3-4: coverage, signatures,
shootdown-on-mutation, no reach-around imports) is verified statically
by ``repro.analysis.conformance`` on every ``repro check`` run.
"""

from __future__ import annotations

from typing import Optional

from repro.core.constants import VMProt
from repro.pmap.interface import Pmap

#: Virtual bytes covered by one segment map entry on the SUN 3 (128 KB).
SEGMENT_SPAN = 128 * 1024


class ContextPool:
    """The machine's hardware MMU contexts, allocated LRU."""

    def __init__(self, ncontexts: int) -> None:
        if ncontexts < 1:
            raise ValueError("need at least one MMU context")
        self.ncontexts = ncontexts
        #: LRU-ordered list of pmaps owning contexts (front = oldest).
        self.owners: list["Sun3Pmap"] = []
        self.context_steals = 0

    def acquire(self, pmap: "Sun3Pmap") -> None:
        """Give *pmap* a context, stealing the least recently used one
        when all are taken."""
        if pmap in self.owners:
            self.owners.remove(pmap)
            self.owners.append(pmap)
            return
        if len(self.owners) >= self.ncontexts:
            victim = self.owners.pop(0)
            self.context_steals += 1
            victim._lose_context()
        self.owners.append(pmap)
        pmap._has_context = True

    def release(self, pmap: "Sun3Pmap") -> None:
        """Give up this pmap's context, if it holds one."""
        if pmap in self.owners:
            self.owners.remove(pmap)
        pmap._has_context = False


class Sun3Pmap(Pmap):
    """Segment-mapped per-context translations.

    ``_tables`` holds the loaded segments: segment index ->
    {vpn -> (frame, prot, wired)}."""

    TABLE_SPAN = SEGMENT_SPAN

    def __init__(self, system, name: str = "") -> None:
        super().__init__(system, name)
        ncontexts = system.machine.spec.mmu_contexts or 8
        self._pool: ContextPool = system.md_shared.setdefault(
            "sun3_contexts", ContextPool(ncontexts))
        self._has_context = False
        self.segments_loaded = 0

    # -- context management ---------------------------------------------------

    def _lose_context(self) -> None:
        """Called by the pool when another pmap steals this context:
        every hardware translation of this pmap evaporates."""
        self._has_context = False
        # Drop mappings through the normal remove path so the pv table
        # and remote TLBs stay consistent (the mappings are hardware
        # state that just ceased to exist).
        for segment in list(self._tables.values()):
            for vpn in list(segment):
                self.forget(vpn * self.hw_page_size)
        self._tables.clear()

    def _ensure_context(self) -> None:
        if not self._has_context:
            self.machine.clock.charge(self.machine.costs.segment_load_us)
            self._pool.acquire(self)

    def activate(self, thread, cpu) -> None:
        """Run on a CPU (acquiring an MMU context first)."""
        super().activate(thread, cpu)
        # Running on a CPU requires a hardware context.
        self._ensure_context()

    # -- geometry ---------------------------------------------------------------

    def _locate(self, vaddr: int) -> tuple[int, int]:
        return vaddr // SEGMENT_SPAN, vaddr // self.hw_page_size

    # -- hardware hooks ----------------------------------------------------------

    def _hw_enter(self, vaddr: int, paddr: int, prot: VMProt,
                  wired: bool) -> None:
        self._ensure_context()
        seg_index, vpn = self._locate(vaddr)
        segment = self._tables.get(seg_index)
        if segment is None:
            self.machine.clock.charge(self.machine.costs.segment_load_us)
            self.segments_loaded += 1
            segment = {}
            self._tables[seg_index] = segment
        frame = paddr - (paddr % self.hw_page_size)
        segment[vpn] = (frame, prot, wired)

    def _hw_remove(self, vaddr: int) -> Optional[int]:
        seg_index, vpn = self._locate(vaddr)
        segment = self._tables.get(seg_index)
        if segment is None:
            return None
        entry = segment.pop(vpn, None)
        if not segment:
            del self._tables[seg_index]
        if entry is None:
            return None
        return entry[0]

    def _hw_protect(self, vaddr: int, prot: VMProt) -> bool:
        seg_index, vpn = self._locate(vaddr)
        segment = self._tables.get(seg_index)
        if segment is None or vpn not in segment:
            return False
        frame, _, wired = segment[vpn]
        segment[vpn] = (frame, prot, wired)
        return True

    def _hw_lookup(self, vaddr: int) -> Optional[tuple[int, VMProt]]:
        if not self._has_context:
            # No context, no hardware translations: the access faults
            # and the fault path (pmap_enter) re-acquires a context.
            return None
        seg_index, vpn = self._locate(vaddr)
        segment = self._tables.get(seg_index)
        if segment is None:
            return None
        entry = segment.get(vpn)
        if entry is None:
            return None
        frame, prot, _ = entry
        return frame, prot

    def _hw_destroy(self) -> None:
        self._pool.release(self)
        self._tables.clear()
