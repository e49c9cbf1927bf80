#!/usr/bin/env python3
"""Porting Mach to a new MMU architecture.

Section 4 of the paper describes the port experience: the IBM RT PC
port's pmap module took "approximately 3 weeks", a Sequent port was
self-hosting in five weeks, and "Machine dependent code has yet to be
modified as the result of support for a new architecture."

This example performs the same exercise on the reproduction: it defines
a brand-new MMU — a two-level page-table design with 4 KB pages, in the
style of the i386 that would appear a year or two later — as a single
pmap class, registers it, boots a machine on it, and runs the standard
workload suite.  Nothing in the machine-independent layer changes.

Run:  python examples/port_to_new_mmu.py
"""

from typing import Optional

from repro import MachKernel, VMInherit, VMProt
from repro.hw.costs import CostModel
from repro.hw.machine import MachineSpec
from repro.pmap import Pmap, register_pmap

KB = 1024
MB = 1 << 20
PAGE = 4 * KB
#: One level-2 table maps 4 MB (1024 PTEs of 4 KB pages).
L2_SPAN = 4 * MB


class I386StylePmap(Pmap):
    """The whole machine-dependent module for the new architecture.

    Only the four single-hardware-page hooks and the table shape are
    required: ``self._tables`` is the page directory (slot -> {vpn ->
    (frame, prot, wired)}) and ``TABLE_SPAN`` the bytes one level-2
    table maps.  The base class supplies pv-table maintenance, Mach-page
    fan-out, statistics, reference counting, TLB shootdown and the
    range walk over the tables.
    """

    TABLE_SPAN = L2_SPAN

    def _locate(self, vaddr: int) -> tuple[int, int]:
        return vaddr // L2_SPAN, vaddr // self.hw_page_size

    def _hw_enter(self, vaddr, paddr, prot, wired) -> None:
        slot, vpn = self._locate(vaddr)
        table = self._tables.get(slot)
        if table is None:         # new table: charge its allocation
            self.machine.clock.charge(
                self.machine.costs.pt_page_alloc_us)
            table = self._tables[slot] = {}
        frame = paddr - (paddr % self.hw_page_size)
        table[vpn] = (frame, prot, wired)

    def _hw_remove(self, vaddr) -> Optional[int]:
        slot, vpn = self._locate(vaddr)
        table = self._tables.get(slot)
        if table is None:
            return None
        entry = table.pop(vpn, None)
        if not table:
            del self._tables[slot]
        return entry[0] if entry else None

    def _hw_protect(self, vaddr, prot) -> bool:
        slot, vpn = self._locate(vaddr)
        table = self._tables.get(slot)
        if table is None or vpn not in table:
            return False
        frame, _, wired = table[vpn]
        table[vpn] = (frame, prot, wired)
        return True

    def _hw_lookup(self, vaddr):
        slot, vpn = self._locate(vaddr)
        table = self._tables.get(slot)
        if table is None:
            return None
        entry = table.get(vpn)
        if entry is None:
            return None
        return entry[0], entry[1]


def main() -> None:
    print("registering the new pmap class "
          f"({I386StylePmap.__name__}, one module, four hooks "
          "and a table span)...")
    register_pmap("i386-style", I386StylePmap, replace=True)

    spec = MachineSpec(
        name="NewBox/386",
        hw_page_size=PAGE,
        default_page_size=PAGE,
        va_limit=1 << 32,
        ncpus=2,
        pmap_name="i386-style",
        tlb_capacity=32,
        memory_segments=((0, 3 * MB),),
        costs=CostModel(),
    )
    kernel = MachKernel(spec)
    print(f"booted {kernel!r}\n")

    print("running the standard machine-independent workload:")
    task = kernel.task_create(name="portability-test")
    addr = task.vm_allocate(64 * KB)
    task.write(addr, b"machine independent")
    child = task.fork()
    child.write(addr, b"COPY-ON-WRITE")
    assert task.read(addr, 7) == b"machine"
    assert child.read(addr, 13) == b"COPY-ON-WRITE"
    print("  copy-on-write fork          OK")

    task.vm_inherit(addr + 32 * KB, 16 * KB, VMInherit.SHARE)
    sharer = task.fork()
    sharer.write(addr + 32 * KB, b"shared")
    assert task.read(addr + 32 * KB, 6) == b"shared"
    print("  read/write sharing          OK")

    task.vm_protect(addr, 4 * KB, False, VMProt.READ)
    try:
        task.write(addr, b"x")
        raise SystemExit("protection failed to hold!")
    except Exception:
        print("  protection enforcement      OK")

    big = task.vm_allocate(4 * MB)
    for off in range(0, 4 * MB, PAGE):
        task.write(big + off, b"pressure")
    print("  paging under pressure       OK "
          f"({kernel.stats.pageouts} pageouts, "
          f"{kernel.stats.pageins} pageins)")

    task.vm_map.check_invariants()
    kernel.vm.resident.check_consistency()
    print("  invariants                  OK")
    print(f"\npmap stats for the new machine: {task.pmap.stats}")
    print("the machine-independent layer was not touched.")


if __name__ == "__main__":
    main()
