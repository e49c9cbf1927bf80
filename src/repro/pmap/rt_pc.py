"""IBM RT PC pmap: a single machine-wide inverted page table.

Section 5.1: "The IBM RT PC does not use per-task page tables.  Instead
it uses a single inverted page table which describes which virtual
address is mapped to each physical address. ... One drawback of the RT,
however, is that it allows only one valid mapping for each physical
page, making it impossible to share pages without triggering faults.
... physical pages shared by multiple tasks can cause extra page faults,
with each page being mapped and then remapped for the last task which
referenced it.  The effect is that Mach treats the inverted page table
as a kind of large, in memory cache for the RT's translation lookaside
buffer."

The inverted table is shared by every pmap of the machine (kept in
``PmapSystem.md_shared``); installing a mapping for a frame that is
already mapped by another (pmap, vaddr) *steals* that mapping — the
loser refaults on its next touch.  ``alias_steals`` counts these events
for the Section 5.1 ablation benchmark.

Conformance to the MI contract (Tables 3-3/3-4: coverage, signatures,
shootdown-on-mutation) is verified statically by
``repro.analysis.conformance``, and the module's imports by
``repro.analysis.layering``, on every ``repro check`` run.
"""

from __future__ import annotations

from typing import Optional

from repro.core.constants import VMProt, trunc_page
from repro.pmap.interface import Pmap


class InvertedPageTable:
    """The RT's single hardware mapping structure.

    * ``frames``: hardware frame -> (pmap, vaddr, prot, wired) — at most
      one virtual mapping per physical page, by construction.
    * ``hash``: (pmap id, vpn) -> frame — the hashed lookup path the RT
      hardware uses for address translation.
    """

    def __init__(self) -> None:
        self.frames: dict[int, tuple[object, int, VMProt, bool]] = {}
        self.hash: dict[tuple[int, int], int] = {}
        self.alias_steals = 0


class RtPcPmap(Pmap):
    """One task's view of the shared inverted page table."""

    def __init__(self, system, name: str = "") -> None:
        super().__init__(system, name)
        self._ipt = system.md_shared.setdefault(
            "rt_ipt", InvertedPageTable())

    @property
    def ipt(self) -> InvertedPageTable:
        """The machine-wide inverted page table."""
        return self._ipt

    def _vpn(self, vaddr: int) -> int:
        return vaddr // self.hw_page_size

    def _vbase(self, vaddr: int) -> int:
        return vaddr - (vaddr % self.hw_page_size)

    def _hw_enter(self, vaddr: int, paddr: int, prot: VMProt,
                  wired: bool) -> None:
        frame = paddr - (paddr % self.hw_page_size)
        existing = self._ipt.frames.get(frame)
        if existing is not None:
            old_pmap, old_vaddr, _, _ = existing
            if old_pmap is not self or old_vaddr != vaddr:
                # Only one valid mapping per physical page: steal it.
                # The whole Mach page of the loser goes (keeps the
                # machine-independent pv table consistent) — the loser
                # simply refaults, as on the real hardware.
                self._ipt.alias_steals += 1
                old_mach_va = trunc_page(old_vaddr, old_pmap.page_size)
                old_pmap.forget(old_mach_va)
        self._ipt.frames[frame] = (self, vaddr, prot, wired)
        self._ipt.hash[(self.pmap_id, self._vpn(vaddr))] = frame

    def _hw_remove(self, vaddr: int) -> Optional[int]:
        vaddr = self._vbase(vaddr)
        frame = self._ipt.hash.pop((self.pmap_id, self._vpn(vaddr)), None)
        if frame is None:
            return None
        entry = self._ipt.frames.get(frame)
        if entry is not None and entry[0] is self and entry[1] == vaddr:
            del self._ipt.frames[frame]
        return frame

    def _hw_protect(self, vaddr: int, prot: VMProt) -> bool:
        vaddr = self._vbase(vaddr)
        frame = self._ipt.hash.get((self.pmap_id, self._vpn(vaddr)))
        if frame is None:
            return False
        entry = self._ipt.frames.get(frame)
        if entry is None or entry[0] is not self or entry[1] != vaddr:
            return False
        pmap, va, _, wired = entry
        self._ipt.frames[frame] = (pmap, va, prot, wired)
        return True

    def _hw_lookup(self, vaddr: int) -> Optional[tuple[int, VMProt]]:
        vaddr = self._vbase(vaddr)
        frame = self._ipt.hash.get((self.pmap_id, self._vpn(vaddr)))
        if frame is None:
            return None
        entry = self._ipt.frames.get(frame)
        if entry is None or entry[0] is not self or entry[1] != vaddr:
            return None
        _, _, prot, _ = entry
        return frame, prot

    def _hw_iter(self, start: int, end: int):
        """No per-task table to walk: probe the machine-wide hash for
        each page of a range narrower than the hash, else scan it."""
        hw = self.hw_page_size
        first = start // hw
        last = -(-end // hw)
        table = self._ipt.hash
        pmap_id = self.pmap_id
        if last - first < len(table):
            for vpn in range(first, last):
                if (pmap_id, vpn) in table:
                    yield vpn * hw
            return
        mine = [vpn for (pid, vpn) in table
                if pid == pmap_id and first <= vpn < last]
        for vpn in sorted(mine):
            yield vpn * hw

    def _hw_destroy(self) -> None:
        stale = [key for key in self._ipt.hash if key[0] == self.pmap_id]
        for key in stale:
            frame = self._ipt.hash.pop(key)
            entry = self._ipt.frames.get(frame)
            if entry is not None and entry[0] is self:
                del self._ipt.frames[frame]
