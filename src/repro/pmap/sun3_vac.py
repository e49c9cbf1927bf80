"""SUN 3/260-style pmap: segment MMU plus a virtually addressed cache.

The paper's conclusion notes that Mach runs on "the SUN 3 (including
the virtual-address-cached SUN ... and 280)".  Those machines put a
write-back cache *in front of* address translation, which creates the
classic alias problem: two virtual mappings of one physical page can
each hold (possibly dirty) cache lines, and neither the cache nor the
MMU will reconcile them.

The machine-dependent module is where this is handled — invisible to
machine-independent code, exactly as the paper's portability story
requires.  This pmap extends the plain SUN 3 pmap with the standard
VAC discipline:

* entering a mapping for a frame that is already mapped at a
  *different* virtual address first flushes the other alias's lines
  (write-back + invalidate), so at most one virtual window is ever
  live in the cache per frame;
* removing or write-protecting a mapping flushes its range, so dirty
  lines reach memory before the page is paged out or shared
  copy-on-write.

Flushes are charged per page on the machine clock and counted in
``vac_flushes`` so the overhead is measurable (see
``benchmarks/test_ablation_vac.py``).

Conformance to the MI contract (Tables 3-3/3-4: coverage, signatures,
shootdown-on-mutation, no reach-around imports) is verified statically
by ``repro.analysis.conformance`` on every ``repro check`` run.
"""

from __future__ import annotations

from typing import Optional

from repro.core.constants import VMProt, trunc_page
from repro.pmap.sun3 import Sun3Pmap


class VACState:
    """Machine-wide virtually-addressed-cache bookkeeping.

    Tracks, per physical frame, which (pmap, vaddr) window may hold
    lines in the cache ("the live alias").  The invariant the pmap
    discipline maintains: at most one live alias per frame.
    """

    #: Simulated cost of flushing one page's worth of cache lines.
    FLUSH_US_PER_PAGE = 75.0

    def __init__(self) -> None:
        #: frame -> (pmap, vaddr) of the alias allowed in the cache.
        self.live_alias: dict[int, tuple[object, int]] = {}
        self.flushes = 0

    def check_invariant(self) -> None:
        """Assert at most one live alias per frame."""
        seen: dict[int, tuple] = {}
        for frame, alias in self.live_alias.items():
            assert frame not in seen
            seen[frame] = alias


class Sun3VacPmap(Sun3Pmap):
    """SUN 3 with the write-back virtually addressed cache."""

    def __init__(self, system, name: str = "") -> None:
        super().__init__(system, name)
        self._vac: VACState = system.md_shared.setdefault(
            "sun3_vac", VACState())

    @property
    def vac(self) -> VACState:
        """The machine-wide virtually-addressed-cache state."""
        return self._vac

    @property
    def vac_flushes(self) -> int:
        """Cache flushes performed so far (machine-wide)."""
        return self._vac.flushes

    def _flush_alias(self, frame: int) -> None:
        """Write back and invalidate the currently live alias's lines
        for *frame*."""
        self._vac.flushes += 1
        self.machine.clock.charge(VACState.FLUSH_US_PER_PAGE)
        del self._vac.live_alias[frame]

    def _frame_of(self, paddr: int) -> int:
        return trunc_page(paddr, self.page_size)

    # -- the VAC discipline, hooked into the pmap operations -------------

    def enter(self, vaddr: int, paddr: int, prot: VMProt,
              wired: bool = False) -> None:
        """Map one Mach page, applying the VAC alias discipline first."""
        frame = self._frame_of(paddr)
        live = self._vac.live_alias.get(frame)
        if live is not None and live != (self, vaddr):
            # A different virtual window may hold this frame's lines:
            # flush it before the new alias can be used.
            self._flush_alias(frame)
        elif live == (self, vaddr):
            # Re-entering the same window (e.g. a protection change):
            # the cached lines stay valid, no flush needed.  Drop the
            # record so the remove() inside enter() does not flush.
            del self._vac.live_alias[frame]
        super().enter(vaddr, paddr, prot, wired)
        self._vac.live_alias[frame] = (self, vaddr)

    def _enter_batch_body(self, mappings, start: int, end: int) -> None:
        """The batched enter with the alias discipline applied.

        Same rules as :meth:`enter`, adapted to the base class's
        one-removal-sweep shape: re-entries of a frame's *own* window
        keep their lines (their records are dropped before the sweep
        so it does not flush them), and a frame arriving under a
        *different* window flushes the old alias before its PTEs are
        written.  Flush totals match the page-at-a-time path.
        """
        vac = self._vac
        for vaddr, paddr, _prot, _wired in mappings:
            frame = self._frame_of(paddr)
            if vac.live_alias.get(frame) == (self, vaddr):
                # Re-entering the same window: the cached lines stay
                # valid; drop the record so the removal sweep below
                # does not flush it.
                del vac.live_alias[frame]
        removed_any = self.remove(start, end, shoot=False)
        for vaddr, paddr, prot, wired in mappings:
            frame = self._frame_of(paddr)
            live = vac.live_alias.get(frame)
            if live is not None and live != (self, vaddr):
                self._flush_alias(frame)
            self._enter_mapping(vaddr, paddr, prot, wired)
            vac.live_alias[frame] = (self, vaddr)
        if removed_any:
            self.system.shootdown(self, start, end)

    def remove(self, start: int, end: int, shoot: bool = True) -> bool:
        # Write back any live lines for frames mapped in the range
        # before their mappings (and possibly the pages) go away.
        """Remove mappings, flushing live cache windows first."""
        for va in self._hw_candidates(*self._mach_bounds(start, end)):
            hit = self._hw_lookup(va)
            if hit is None:
                continue
            frame = self._frame_of(hit[0])
            if self._vac.live_alias.get(frame) == (
                    self, trunc_page(va, self.page_size)):
                self._flush_alias(frame)
        return super().remove(start, end, shoot)

    def protect(self, start: int, end: int, prot: VMProt) -> None:
        """Change protection, writing back dirty lines before COW downgrades."""
        if not prot.allows(VMProt.WRITE):
            # Downgrading to read-only (the COW path): dirty lines must
            # reach memory first, or a copy made from the frame would
            # miss them.
            for va in self._hw_candidates(*self._mach_bounds(start,
                                                             end)):
                hit = self._hw_lookup(va)
                if hit is None or not hit[1].allows(VMProt.WRITE):
                    continue
                frame = self._frame_of(hit[0])
                if self._vac.live_alias.get(frame) == (
                        self, trunc_page(va, self.page_size)):
                    self._flush_alias(frame)
        super().protect(start, end, prot)
