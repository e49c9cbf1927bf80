"""VAX pmap: lazily constructed linear page tables.

Section 5.1: "Although, in theory, a full two gigabyte address space can
be allocated in user state to a VAX process, it is not always practical
to do so because of the large amount of linear page table space required
(8 megabytes). ... The solution chosen for Mach was to keep page tables
in physical memory, but only to construct those parts of the table which
were needed to actually map virtual to real addresses for pages
currently in use.  VAX page tables in Mach may be created and destroyed
as necessary to conserve space or improve runtime."

The VAX has two user regions — P0 (program, growing up from 0) and P1
(stack, growing down below 0x8000_0000) — each described by a linear
array of 4-byte PTEs covering 512-byte pages.  We model the array as a
sparse set of *page-table pages* (128 PTEs each); a PT page exists only
while it holds at least one valid PTE, and the peak count is exported so
the space-saving claim can be benchmarked
(``benchmarks/bench_ablation_vax_ptspace.py``).

Conformance to the MI contract (Tables 3-3/3-4: coverage, signatures,
shootdown-on-mutation, no reach-around imports) is verified statically
by ``repro.analysis.conformance`` on every ``repro check`` run.
"""

from __future__ import annotations

from typing import Optional

from repro.core.constants import VMProt
from repro.pmap.interface import Pmap

VAX_PTE_SIZE = 4
VAX_HW_PAGE = 512
#: PTEs per page-table page (one 512-byte page of 4-byte PTEs).
PTES_PER_PT_PAGE = VAX_HW_PAGE // VAX_PTE_SIZE

P0_BASE = 0x0000_0000
P1_LIMIT = 0x8000_0000
P0_LIMIT = 0x4000_0000


class VaxPmap(Pmap):
    """Sparse VAX page tables (P0/P1 regions).

    ``_tables`` holds the resident PT pages: pt-page index ->
    {vpn -> (frame, prot, wired)}."""

    #: Virtual bytes one PT page maps (64 KB).
    TABLE_SPAN = PTES_PER_PT_PAGE * VAX_HW_PAGE

    def __init__(self, system, name: str = "") -> None:
        super().__init__(system, name)
        self.pt_pages_peak = 0

    # -- page-table geometry ------------------------------------------------

    def _locate(self, vaddr: int) -> tuple[int, int]:
        """(pt-page index, vpn) for a virtual address."""
        return vaddr // self.TABLE_SPAN, vaddr // self.hw_page_size

    @property
    def pt_pages_resident(self) -> int:
        """PT pages currently wired in (simulated) physical memory."""
        return len(self._tables)

    def pt_bytes(self) -> int:
        """Bytes of page-table space currently committed."""
        return len(self._tables) * VAX_HW_PAGE

    @staticmethod
    def full_linear_pt_bytes(va_span: int) -> int:
        """What a traditional full linear page table would cost for a
        *va_span*-byte region (the paper's 8 MB for 2 GB figure)."""
        return (va_span // VAX_HW_PAGE) * VAX_PTE_SIZE

    # -- hardware hooks -------------------------------------------------------

    def _hw_enter(self, vaddr: int, paddr: int, prot: VMProt,
                  wired: bool) -> None:
        if vaddr >= P1_LIMIT:
            raise ValueError(
                f"{vaddr:#x} is in VAX system space; user pmaps map P0/P1")
        pt_index, vpn = self._locate(vaddr)
        page = self._tables.get(pt_index)
        if page is None:
            # Construct this part of the page table on demand.
            self.machine.clock.charge(self.machine.costs.pt_page_alloc_us)
            page = {}
            self._tables[pt_index] = page
            self.pt_pages_peak = max(self.pt_pages_peak,
                                     len(self._tables))
        frame = paddr - (paddr % self.hw_page_size)
        page[vpn] = (frame, prot, wired)

    def _hw_remove(self, vaddr: int) -> Optional[int]:
        pt_index, vpn = self._locate(vaddr)
        page = self._tables.get(pt_index)
        if page is None:
            return None
        entry = page.pop(vpn, None)
        if not page:
            # "destroyed as necessary to conserve space".
            del self._tables[pt_index]
        if entry is None:
            return None
        return entry[0]

    def _hw_protect(self, vaddr: int, prot: VMProt) -> bool:
        pt_index, vpn = self._locate(vaddr)
        page = self._tables.get(pt_index)
        if page is None or vpn not in page:
            return False
        frame, _, wired = page[vpn]
        page[vpn] = (frame, prot, wired)
        return True

    def _hw_lookup(self, vaddr: int) -> Optional[tuple[int, VMProt]]:
        pt_index, vpn = self._locate(vaddr)
        page = self._tables.get(pt_index)
        if page is None:
            return None
        entry = page.get(vpn)
        if entry is None:
            return None
        frame, prot, _ = entry
        return frame, prot

    def _hw_destroy(self) -> None:
        self._tables.clear()
