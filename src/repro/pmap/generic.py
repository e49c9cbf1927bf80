"""TLB-only pmap.

Section 5: "In principle, Mach needs no in-memory hardware-defined data
structure to manage virtual memory.  Machines which provide only an
easily manipulated TLB could be accommodated by Mach and would need
little code to be written for the pmap module.  In fact, a version of
Mach has already run on a simulator for the IBM RP3 which assumed only
TLB hardware support."

This is that pmap: a bare software translation table standing in for
whatever structure refills the TLB.  It is also the reference
implementation the other pmap modules are tested against.

Conformance to the MI contract (Tables 3-3/3-4: coverage, signatures,
shootdown-on-mutation) is verified statically by
``repro.analysis.conformance``, and the module's imports by
``repro.analysis.layering``, on every ``repro check`` run.
"""

from __future__ import annotations

from typing import Optional

from repro.core.constants import VMProt
from repro.pmap.interface import Pmap


class GenericPmap(Pmap):
    """Software map: hardware-page VPN -> (frame, protection, wired)."""

    #: One table covering the whole virtual space.
    TABLE_SPAN = 1 << 64

    def __init__(self, system, name: str = "") -> None:
        super().__init__(system, name)
        self._table: dict[int, tuple[int, VMProt, bool]] = {}
        self._tables[0] = self._table

    def _vpn(self, vaddr: int) -> int:
        return vaddr // self.hw_page_size

    def _hw_enter(self, vaddr: int, paddr: int, prot: VMProt,
                  wired: bool) -> None:
        frame = paddr - (paddr % self.hw_page_size)
        self._table[self._vpn(vaddr)] = (frame, prot, wired)

    def _hw_remove(self, vaddr: int) -> Optional[int]:
        entry = self._table.pop(self._vpn(vaddr), None)
        if entry is None:
            return None
        return entry[0]

    def _hw_protect(self, vaddr: int, prot: VMProt) -> bool:
        vpn = self._vpn(vaddr)
        entry = self._table.get(vpn)
        if entry is None:
            return False
        frame, _, wired = entry
        self._table[vpn] = (frame, prot, wired)
        return True

    def _hw_lookup(self, vaddr: int) -> Optional[tuple[int, VMProt]]:
        entry = self._table.get(self._vpn(vaddr))
        if entry is None:
            return None
        frame, prot, _ = entry
        return frame, prot

    def _hw_destroy(self) -> None:
        self._table.clear()

    def copy(self, src_pmap: "GenericPmap", dst_addr: int, length: int,
             src_addr: int) -> None:
        """Table 3-4 ``pmap_copy`` — the *optional* optimization: copy
        the source pmap's valid mappings so a freshly forked child need
        not fault each one back in.

        Only safe because a fork has already write-protected every
        source mapping (copy-on-write); the copied translations carry
        the same reduced permissions, so the first child *write* still
        faults exactly as required.
        """
        if not isinstance(src_pmap, GenericPmap):
            return
        costs = self.machine.costs
        delta = dst_addr - src_addr
        for va in list(src_pmap._hw_iter(src_addr, src_addr + length)):
            hit = src_pmap._hw_lookup(va)
            if hit is None:
                continue
            frame, prot = hit
            if prot.allows(VMProt.WRITE):
                # Never duplicate a writable mapping: COW correctness
                # depends on the first write faulting.
                continue
            self.machine.clock.charge(costs.pte_write_us)
            self._hw_enter(va + delta, frame, prot, wired=False)
            mach_va = (va + delta) - (va + delta) % self.page_size
            mach_pa = frame - frame % self.page_size
            self.system.pv_enter(self, mach_va, mach_pa)
