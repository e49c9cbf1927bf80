"""The range walk over pmap tables: ``_hw_iter`` yields exactly the
mapped hardware pages of a range, in ascending order, on all six pmaps;
one-Mach-page operations never scan or sort a table; and the porting
example charges a page-table allocation when it creates a table."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.core.constants import VMProt
from repro.core.kernel import MachKernel

from tests.conftest import make_spec
from tests.test_pmap_model import ARCHS, KB, MB


def _scattered(page: int) -> list[int]:
    """Mapped addresses: the Mach pages either side of every 64 KB
    (ns32082 level-2 table, VAX PT page) and 128 KB (SUN 3 segment)
    edge up to 256 KB, and a few far away."""
    addresses = {0, page, 1 * MB, 1 * MB + page, 4 * MB - page, 4 * MB}
    for edge in range(64 * KB, 320 * KB, 64 * KB):
        addresses |= {edge - page, edge}
    return sorted(addresses)


PMAP_MODULES = ("repro.pmap.interface", "repro.pmap.generic",
                "repro.pmap.ns32082", "repro.pmap.vax", "repro.pmap.sun3",
                "repro.pmap.sun3_vac", "repro.pmap.rt_pc")


def _boot(arch: str, memory_frames: int = 256):
    kernel = MachKernel(make_spec(name=f"tables-{arch}", pmap_name=arch,
                                  memory_frames=memory_frames,
                                  **ARCHS[arch]))
    return kernel, kernel.task_create().pmap


def _map(kernel, pmap, addresses) -> None:
    for vaddr in addresses:
        frame = kernel.vm.resident.allocate().phys_addr
        pmap.enter(vaddr, frame, VMProt.DEFAULT)


@pytest.mark.parametrize("arch", sorted(ARCHS))
class TestHwIterOracle:
    def _ranges(self, kernel, pmap):
        hw, page = pmap.hw_page_size, pmap.page_size
        va_limit = kernel.machine.spec.va_limit
        return [
            (0, 0), (64 * KB, 64 * KB),                 # empty
            (72 * KB, 8 * KB), (64 * KB, 64 * KB - hw),  # end <= start
            (8 * KB + 100, 130 * KB + 3),               # unaligned
            (hw + 1, 2 * page - 1),
            (64 * KB, 64 * KB + hw),                    # one hw page
            (2 * page - hw, 2 * page),
            (64 * KB - hw, 64 * KB + hw),               # table edges
            (64 * KB - page, 64 * KB),
            (64 * KB, 128 * KB),
            (128 * KB - hw, 128 * KB + hw),
            (128 * KB, 256 * KB),
            (256 * KB - hw, 256 * KB),
            (0, va_limit),                              # whole space
        ]

    def test_matches_brute_force(self, arch):
        kernel, pmap = _boot(arch)
        hw, page = pmap.hw_page_size, pmap.page_size
        scattered = _scattered(page)
        _map(kernel, pmap, scattered)
        mapped = [va + off for va in scattered
                  for off in range(0, page, hw)]
        assert all(pmap._hw_lookup(va) is not None for va in mapped)
        for start, end in self._ranges(kernel, pmap):
            want = sorted(va for va in mapped
                          if va + hw > start and va < end)
            got = list(pmap._hw_iter(start, end))
            assert got == want, (arch, hex(start), hex(end))


@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_one_page_operations_never_sort(arch, monkeypatch):
    """forget, enter and a one-page protect on a pmap holding hundreds
    of mappings over many tables touch only their own hardware pages:
    any ``sorted`` call means a table walk crept back in."""
    kernel, pmap = _boot(arch, memory_frames=512)
    page = pmap.page_size
    _map(kernel, pmap, [3 * n * page for n in range(300)])

    def no_scan(*args, **kwargs):
        raise AssertionError("a one-page pmap operation sorted a table")

    for name in PMAP_MODULES:
        monkeypatch.setattr(importlib.import_module(name), "sorted",
                            no_scan, raising=False)
    pmap.forget(30 * page)
    assert pmap.hw_lookup(30 * page) is None
    frame = kernel.vm.resident.allocate().phys_addr
    pmap.enter(31 * page, frame, VMProt.DEFAULT)
    pmap.enter(33 * page, frame, VMProt.DEFAULT)     # displaces a mapping
    assert pmap.hw_lookup(33 * page)[0] == frame
    pmap.protect(36 * page, 37 * page, VMProt.READ)
    assert pmap.hw_lookup(36 * page)[1] == VMProt.READ


def test_porting_example_charges_allocation_on_table_creation():
    path = (Path(__file__).parent.parent / "examples"
            / "port_to_new_mmu.py")
    spec = importlib.util.spec_from_file_location("port_to_new_mmu", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    kernel = MachKernel(make_spec(name="i386-alloc"))
    pmap = module.I386StylePmap(kernel.pmap_system)
    clock = kernel.machine.clock
    alloc = kernel.machine.costs.pt_page_alloc_us

    def charged(vaddr: int) -> float:
        before = clock.cpu_us
        pmap._hw_enter(vaddr, 0, VMProt.DEFAULT, False)
        return clock.cpu_us - before

    assert charged(0) == alloc                # creates slot 0's table
    assert charged(4096) == 0                 # same table
    assert charged(0) == 0                    # re-entering a mapping
    assert charged(module.L2_SPAN) == alloc   # the next slot
