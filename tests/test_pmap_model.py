"""Model-based property test: every pmap implementation must behave
like a simple dictionary of mappings under random operation sequences —
with two architecture-specific licenses:

* mappings may be *forgotten* at any time (the MD/MI contract), so the
  model only requires that a present mapping is **correct**, never that
  a mapping is present;
* the pv table must exactly track whatever mappings exist.

The window of pages straddles 128 KB, so it crosses NS32082 level-2
table and VAX PT-page edges (every 64 KB) and a SUN 3 segment edge
(128 KB); remove and protect ranges may start or end inside a Mach page,
and then cover every Mach page they overlap.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.constants import VMProt
from repro.core.kernel import MachKernel

from tests.conftest import make_spec

MB = 1 << 20

ARCHS = {
    "generic": dict(hw_page_size=4096, page_size=4096),
    "vax": dict(hw_page_size=512, page_size=4096),
    "rt_pc": dict(hw_page_size=2048, page_size=4096),
    "sun3": dict(hw_page_size=8192, page_size=8192, mmu_contexts=8),
    "sun3_vac": dict(hw_page_size=8192, page_size=8192,
                     mmu_contexts=8),
    "ns32082": dict(hw_page_size=512, page_size=4096,
                    va_limit=16 * MB),
}

KB = 1024
#: First page of the window: a few pages below the 128 KB edge.
BASE = 128 * KB - 32 * KB
NPAGES = 24
#: Byte offsets by which a range may start late or end early inside
#: its first or last Mach page.
OFFSETS = [0, 1, 512, 2047, 2048, 4095]
PROTS = [VMProt.READ, VMProt.DEFAULT, VMProt.ALL,
         VMProt.READ | VMProt.EXECUTE]

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("enter"), st.integers(0, NPAGES - 1),
                  st.integers(0, 3), st.sampled_from(PROTS)),
        st.tuples(st.just("remove"), st.integers(0, NPAGES - 1),
                  st.integers(1, 3), st.sampled_from(OFFSETS),
                  st.sampled_from(OFFSETS)),
        st.tuples(st.just("protect"), st.integers(0, NPAGES - 1),
                  st.integers(1, 2), st.sampled_from(OFFSETS),
                  st.sampled_from(OFFSETS), st.sampled_from(PROTS)),
        st.tuples(st.just("remove_all"), st.integers(0, 3)),
    ),
    min_size=1, max_size=25)


@pytest.mark.parametrize("arch", sorted(ARCHS))
class TestPmapModel:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(ops=ops_strategy)
    def test_against_reference_model(self, arch, ops):
        kernel = MachKernel(make_spec(name=f"model-{arch}",
                                      pmap_name=arch, **ARCHS[arch]))
        page = kernel.page_size
        pmap = kernel.task_create().pmap
        frames = [kernel.vm.resident.allocate().phys_addr
                  for _ in range(4)]
        #: vpn -> (frame, prot) — what a *non-forgetting* pmap would
        #: hold.  The real pmap may hold any subset.
        model: dict[int, tuple[int, VMProt]] = {}

        def span(vpn, count, head, tail):
            """The byte range, and the window pages it overlaps."""
            start = BASE + vpn * page + head
            end = BASE + (vpn + count) * page - tail
            return start, end, range(vpn, vpn + count if end > start
                                     else vpn)

        for op in ops:
            if op[0] == "enter":
                _, vpn, frame_index, prot = op
                pmap.enter(BASE + vpn * page, frames[frame_index], prot)
                model[vpn] = (frames[frame_index], prot)
            elif op[0] == "remove":
                start, end, touched = span(*op[1:])
                pmap.remove(start, end)
                for v in touched:
                    model.pop(v, None)
            elif op[0] == "protect":
                start, end, touched = span(*op[1:5])
                prot = op[5]
                pmap.protect(start, end, prot)
                for v in touched:
                    if v in model:
                        # pmap_protect only ever restricts: the new
                        # protection is intersected with the mapping's,
                        # never raised (raising happens at fault time).
                        model[v] = (model[v][0], model[v][1] & prot)
            else:
                _, frame_index = op
                kernel.pmap_system.remove_all(frames[frame_index])
                for v in list(model):
                    if model[v][0] == frames[frame_index]:
                        del model[v]

            self._check(kernel, pmap, model, page)

    def _check(self, kernel, pmap, model, page) -> None:
        hw = pmap.hw_page_size
        for vpn in range(NPAGES):
            vaddr = BASE + vpn * page
            for off in range(0, page, hw):
                hit = pmap.hw_lookup(vaddr + off)
                if vpn not in model:
                    assert hit is None, \
                        f"pmap invented a mapping at {vaddr + off:#x}"
                elif hit is not None:
                    # Present mappings must agree with the model
                    # (absence is always permitted: "mappings may be
                    # thrown away at almost any time").
                    frame, prot = model[vpn]
                    assert hit[0] == frame + off
                    assert hit[1] == prot
                    # And must appear in the pv table.
                    mappings = kernel.pmap_system.mappings_of(frame)
                    assert (pmap, vaddr) in mappings
        # No pv entry may claim a mapping the hardware doesn't have.
        for frame_addr, mappings in list(
                kernel.pmap_system._pv.items()):
            for entry_pmap, vaddr in mappings:
                if entry_pmap is pmap:
                    assert pmap.hw_lookup(vaddr) is not None, \
                        "pv table has a mapping the pmap forgot"
