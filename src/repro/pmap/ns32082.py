"""National Semiconductor NS32082 pmap (Encore Multimax, Sequent
Balance).

Section 5.1 lists this MMU's problems, all modelled here or in the
machine spec:

* "Only 16 megabytes of virtual memory may be addressed per page table.
  This requirement is very restrictive in large systems, especially for
  the kernel's address space." — enforced as a hard limit in
  ``_hw_enter`` (the machine spec also clamps task map bounds).
* "Only 32 megabytes of physical memory may be addressed." — enforced
  here and by the machine spec's ``phys_limit``.
* "A chip bug apparently causes read-modify-write faults to always be
  reported as read faults.  Mach depends on the ability to detect write
  faults for proper copy-on-write fault handling." — the simulated MMU
  delivers the buggy report (see :mod:`repro.hw.mmu`); this pmap's
  ``translate_fault_type`` carries the workaround: a "read" fault taken
  on a page that is already mapped readable can only be a disguised
  write, so it is upgraded before the machine-independent fault handler
  sees it.

The mapping structure itself is a two-level page table (pointer table of
level-2 page tables), as on the real part.

Conformance to the MI contract (Tables 3-3/3-4: coverage, signatures,
shootdown-on-mutation) is verified statically by
``repro.analysis.conformance``, and the module's imports by
``repro.analysis.layering``, on every ``repro check`` run.
"""

from __future__ import annotations

from typing import Optional

from repro.core.constants import FaultType, VMProt
from repro.pmap.interface import Pmap

MB = 1 << 20

#: Per-page-table virtual address limit.
VA_LIMIT = 16 * MB
#: Physical addressing limit of the chip.
PA_LIMIT = 32 * MB
#: Level-2 tables cover 64 KB each (128 PTEs of 512-byte pages).
L2_SPAN = 64 * 1024


class Ns32082Pmap(Pmap):
    """Two-level page table with the chip's limits and erratum.

    ``_tables`` is the level-1 table: index -> {vpn -> (frame, prot,
    wired)}."""

    TABLE_SPAN = L2_SPAN

    def __init__(self, system, name: str = "") -> None:
        super().__init__(system, name)
        self.rmw_upgrades = 0

    def _locate(self, vaddr: int) -> tuple[int, int]:
        return vaddr // L2_SPAN, vaddr // self.hw_page_size

    def _hw_enter(self, vaddr: int, paddr: int, prot: VMProt,
                  wired: bool) -> None:
        if vaddr >= VA_LIMIT:
            raise ValueError(
                f"NS32082 maps only {VA_LIMIT:#x} bytes of virtual "
                f"space; got {vaddr:#x}")
        if paddr >= PA_LIMIT:
            raise ValueError(
                f"NS32082 addresses only {PA_LIMIT:#x} bytes of "
                f"physical memory; got {paddr:#x}")
        l1_index, vpn = self._locate(vaddr)
        table = self._tables.get(l1_index)
        if table is None:
            self.machine.clock.charge(self.machine.costs.pt_page_alloc_us)
            table = {}
            self._tables[l1_index] = table
        frame = paddr - (paddr % self.hw_page_size)
        table[vpn] = (frame, prot, wired)

    def _hw_remove(self, vaddr: int) -> Optional[int]:
        l1_index, vpn = self._locate(vaddr)
        table = self._tables.get(l1_index)
        if table is None:
            return None
        entry = table.pop(vpn, None)
        if not table:
            del self._tables[l1_index]
        if entry is None:
            return None
        return entry[0]

    def _hw_protect(self, vaddr: int, prot: VMProt) -> bool:
        l1_index, vpn = self._locate(vaddr)
        table = self._tables.get(l1_index)
        if table is None or vpn not in table:
            return False
        frame, _, wired = table[vpn]
        table[vpn] = (frame, prot, wired)
        return True

    def _hw_lookup(self, vaddr: int) -> Optional[tuple[int, VMProt]]:
        l1_index, vpn = self._locate(vaddr)
        table = self._tables.get(l1_index)
        if table is None:
            return None
        entry = table.get(vpn)
        if entry is None:
            return None
        frame, prot, _ = entry
        return frame, prot

    def _hw_destroy(self) -> None:
        self._tables.clear()

    # -- the erratum workaround ---------------------------------------------

    def translate_fault_type(self, vaddr: int,
                             reported: FaultType) -> FaultType:
        """Undo the chip's read-modify-write misreporting.

        If the chip says READ but this pmap already holds a readable
        mapping at *vaddr*, a plain read could not have faulted: the
        access must have been the write half of a read-modify-write, so
        the machine-independent handler is told WRITE (this is what
        makes copy-on-write work at all on the Multimax and Balance).
        """
        if reported is FaultType.READ:
            hit = self._hw_lookup(vaddr)
            if hit is not None and hit[1].allows(VMProt.READ):
                self.rmw_upgrades += 1
                return FaultType.WRITE
        return reported
