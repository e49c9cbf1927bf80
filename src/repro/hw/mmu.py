"""Simulated memory management unit.

The MMU sits between a CPU's memory accesses and physical memory.  On
each access it probes the CPU's TLB; on a miss it walks the hardware
mapping structure maintained by the active pmap.  Any failure — no
translation, or insufficient permission — raises
:class:`~repro.core.errors.PageFault`, the simulation's hardware trap,
which the kernel routes into the machine-independent fault handler.

The MMU also maintains reference and modify information: a successful
translation marks the target physical page referenced (and modified, for
writes) through the pmap system's physical-to-virtual table, modelling
hardware-managed R/M bits (or the software emulation thereof that the
pmap layer performs on MMUs lacking them).

One hardware erratum from the paper is reproduced here (Section 5.1):
the NS32082 "chip bug apparently causes read-modify-write faults to
always be reported as read faults."  Machines whose spec sets
``buggy_rmw_reports_read`` deliver exactly that misinformation; the
NS32082 pmap module carries the workaround.
"""

from __future__ import annotations

from repro.core.constants import FaultType, VMProt
from repro.core.errors import PageFault

#: Map a fault/access type to the protection bit it requires.
_ACCESS_PROT = {
    FaultType.READ: VMProt.READ,
    FaultType.WRITE: VMProt.WRITE,
    FaultType.EXECUTE: VMProt.EXECUTE,
}

_WRITE_BIT = int(VMProt.WRITE)


class MMU:
    """Translation front-end shared by all CPUs of a machine."""

    def __init__(self, machine) -> None:
        self.machine = machine
        #: (access, rmw) -> required protection as plain int bits; the
        #: hit path checks permissions with integer masks against
        #: ``TLBEntry.prot_bits`` instead of IntFlag arithmetic.
        self._required_bits = {
            (access, rmw): int(self._required_prot(access, rmw))
            for access in (FaultType.READ, FaultType.WRITE,
                           FaultType.EXECUTE)
            for rmw in (False, True)
        }

    def _required_prot(self, access: FaultType, rmw: bool) -> VMProt:
        prot = _ACCESS_PROT[access]
        if rmw:
            prot |= VMProt.READ | VMProt.WRITE
        if (access is FaultType.EXECUTE
                and not self.machine.spec.enforces_execute):
            # "many machines do not allow for explicit execute
            # permissions": instruction fetch checks read permission
            # only on such hardware.
            prot = VMProt.READ
        return prot

    def _fault(self, cpu, vaddr: int, access: FaultType,
               rmw: bool) -> PageFault:
        reported = access
        if rmw and self.machine.spec.buggy_rmw_reports_read:
            reported = FaultType.READ
        elif rmw:
            reported = FaultType.WRITE
        elif (access is FaultType.EXECUTE
                and not self.machine.spec.enforces_execute):
            # Hardware that cannot distinguish instruction fetches
            # reports them as data reads.
            reported = FaultType.READ
        return PageFault(vaddr, reported, pmap=cpu.active_pmap,
                         cpu_id=cpu.cpu_id)

    def translate(self, cpu, vaddr: int, access: FaultType,
                  rmw: bool = False) -> int:
        """Translate *vaddr* for *access* on *cpu*; return a physical
        address or raise :class:`PageFault`.

        A read-modify-write access (``rmw=True``) requires both read and
        write permission in one translation, as on real hardware.
        """
        pmap = cpu.active_pmap
        if pmap is None:
            raise RuntimeError(f"cpu {cpu.cpu_id} has no active pmap")
        required_bits = self._required_bits[(access, rmw)]
        tlb = cpu.tlb

        entry = tlb.probe(pmap, vaddr)
        if entry is not None:
            if entry.prot_bits & required_bits == required_bits:
                pmap.system.note_access(
                    entry.paddr, write=bool(required_bits & _WRITE_BIT))
                return entry.paddr + (vaddr % tlb.page_size)
            # Insufficient permission cached: the hardware traps.  Drop
            # the entry so the retry after fault resolution refills it.
            tlb.stats.protection_blocks += 1
            tlb.invalidate(pmap, vaddr)
            raise self._fault(cpu, vaddr, access, rmw)

        # TLB miss: walk the machine-dependent structure.  The hit
        # path above stays uninstrumented; only the miss pays the
        # stage-span probe.
        with self.machine.events.stage("mmu_probe"):
            translation = pmap.hw_lookup(vaddr)
            if translation is None:
                raise self._fault(cpu, vaddr, access, rmw)
            paddr, prot = translation
            if int(prot) & required_bits != required_bits:
                raise self._fault(cpu, vaddr, access, rmw)
            machine = self.machine
            machine.clock.charge(machine.costs.tlb_fill_us)
            page_base = vaddr - (vaddr % tlb.page_size)
            tlb.fill(pmap, vaddr, paddr - (vaddr - page_base), prot)
            pmap.system.note_access(paddr,
                                    write=bool(required_bits & _WRITE_BIT))
            return paddr
