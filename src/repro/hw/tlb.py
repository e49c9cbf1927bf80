"""Per-CPU translation lookaside buffer.

Section 5.2 of the paper: "hardware manufacturers do not typically treat
the translation lookaside buffer of a memory management unit as another
type of cache which also must be kept consistent.  None of the
multiprocessors running Mach support TLB consistency."

The simulated TLB is therefore deliberately *not* coherent: a mapping
change in a pmap leaves stale TLB entries on every CPU until somebody
flushes them.  The shootdown strategies of Section 5.2 are implemented
above this layer (see :mod:`repro.pmap.interface`); tests exercise both
the stale-entry hazard and each remedy.

Entries are tagged with the owning pmap, modelling a context-tagged TLB;
``flush_all`` models untagged designs by dropping everything.

The translation store is a plain insertion-ordered dict keyed by a
single *tagged VPN* integer — ``(id(pmap) << TAG_SHIFT) | vpn`` — so the
probe/fill hit path allocates nothing (no key tuples, no OrderedDict
bookkeeping).  FIFO eviction drops the first-inserted key, which is
exactly what the old OrderedDict ``popitem(last=False)`` did.
"""

from __future__ import annotations

from typing import Optional

from repro.core.constants import VMProt
from repro.obs.bus import EventBus

#: Bits reserved for the VPN in a tagged-VPN key.  Virtual addresses in
#: this simulator stay far below 2**40 even at the smallest hardware
#: page size, so the pmap tag (``id(pmap)``) occupies the high bits
#: without collisions.
TAG_SHIFT = 40
_VPN_MASK = (1 << TAG_SHIFT) - 1


class TLBEntry:
    """One cached translation: hardware page -> frame, with permissions.

    ``prot_bits`` mirrors ``prot`` as a plain int so the MMU hit path
    checks permissions with integer masks instead of IntFlag operations.
    """

    __slots__ = ("paddr", "prot", "prot_bits")

    def __init__(self, paddr: int, prot: VMProt) -> None:
        self.paddr = paddr
        self.prot = prot
        self.prot_bits = int(prot)


class TLBStats:
    """Hit/miss/flush counters for one TLB."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.entry_flushes = 0
        self.full_flushes = 0
        self.protection_blocks = 0

    def __repr__(self) -> str:
        return (f"TLBStats(hits={self.hits}, misses={self.misses}, "
                f"fills={self.fills}, entry_flushes={self.entry_flushes}, "
                f"full_flushes={self.full_flushes})")


class TLB:
    """A finite, FIFO-evicting, pmap-tagged TLB.

    Args:
        page_size: the *hardware* page size the TLB maps.
        capacity: number of entries (e.g. VAX-11/780: 128).
        events: the machine's :class:`~repro.obs.bus.EventBus`; every
            hit/fill/drop/flush is published there as a ``tlb/...``
            event tagged with this TLB's CPU.  A standalone TLB (unit
            tests) gets a private bus with no subscribers.
        cpu_id: the CPU this TLB belongs to (stamps the events).
    """

    def __init__(self, page_size: int, capacity: int = 64,
                 events: Optional[EventBus] = None,
                 cpu_id: int = 0) -> None:
        self.page_size = page_size
        self.capacity = capacity
        self.cpu_id = cpu_id
        self.events = events if events is not None else EventBus()
        #: tagged-VPN key -> entry; insertion order is FIFO age.
        self._entries: dict[int, TLBEntry] = {}
        self.stats = TLBStats()

    def probe(self, pmap, vaddr: int) -> Optional[TLBEntry]:
        """Look up a translation; counts a hit or a miss."""
        key = (id(pmap) << TAG_SHIFT) | (vaddr // self.page_size)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
            if self.events.recording:
                self.events.emit("tlb", "hit", cpu=self.cpu_id,
                                 tag=key >> TAG_SHIFT,
                                 vpn=key & _VPN_MASK)
        return entry

    def fill(self, pmap, vaddr: int, paddr: int, prot: VMProt) -> None:
        """Install a translation, evicting the oldest entry when full.

        A zero-capacity TLB (SUN 3: the MMU mapping RAM *is* the
        translation store, there is no separate TLB) caches nothing —
        every access walks the pmap structure.
        """
        if self.capacity == 0:
            return
        entries = self._entries
        key = (id(pmap) << TAG_SHIFT) | (vaddr // self.page_size)
        if key not in entries and len(entries) >= self.capacity:
            evicted_key = next(iter(entries))
            del entries[evicted_key]
            if self.events.recording:
                self.events.emit("tlb", "drop", cpu=self.cpu_id,
                                 tag=evicted_key >> TAG_SHIFT,
                                 vpn=evicted_key & _VPN_MASK)
        entries[key] = TLBEntry(paddr, prot)
        self.stats.fills += 1
        if self.events.recording:
            self.events.emit("tlb", "fill", cpu=self.cpu_id,
                             tag=key >> TAG_SHIFT, vpn=key & _VPN_MASK)

    def invalidate(self, pmap, vaddr: int) -> bool:
        """Drop one translation; returns True when it was present."""
        key = (id(pmap) << TAG_SHIFT) | (vaddr // self.page_size)
        removed = self._entries.pop(key, None)
        if removed is not None:
            self.stats.entry_flushes += 1
            if self.events.recording:
                self.events.emit("tlb", "drop", cpu=self.cpu_id,
                                 tag=key >> TAG_SHIFT,
                                 vpn=key & _VPN_MASK)
        return removed is not None

    def invalidate_range(self, pmap, start: int, end: int) -> int:
        """Drop all translations of *pmap* covering [start, end)."""
        first = start // self.page_size
        last = (end + self.page_size - 1) // self.page_size
        count = 0
        entries = self._entries
        base = id(pmap) << TAG_SHIFT
        recording = self.events.recording
        if last - first <= len(entries):
            # Narrow flush (the common shootdown shape): probe the few
            # covered pages directly instead of scanning the whole TLB.
            for vpn in range(first, last):
                if entries.pop(base | vpn, None) is not None:
                    if recording:
                        self.events.emit("tlb", "drop", cpu=self.cpu_id,
                                         tag=base >> TAG_SHIFT, vpn=vpn)
                    count += 1
        else:
            for key in [k for k in entries
                        if k & ~_VPN_MASK == base
                        and first <= k & _VPN_MASK < last]:
                del entries[key]
                if recording:
                    self.events.emit("tlb", "drop", cpu=self.cpu_id,
                                     tag=key >> TAG_SHIFT,
                                     vpn=key & _VPN_MASK)
                count += 1
        self.stats.entry_flushes += count
        if recording:
            self.events.emit("tlb", "flush_range", cpu=self.cpu_id,
                             tag=base >> TAG_SHIFT, start=start, end=end)
        return count

    def invalidate_pmap(self, pmap) -> int:
        """Drop every translation belonging to *pmap*."""
        base = id(pmap) << TAG_SHIFT
        stale = [key for key in self._entries if key & ~_VPN_MASK == base]
        recording = self.events.recording
        for key in stale:
            del self._entries[key]
            if recording:
                self.events.emit("tlb", "drop", cpu=self.cpu_id,
                                 tag=key >> TAG_SHIFT,
                                 vpn=key & _VPN_MASK)
        self.stats.entry_flushes += len(stale)
        if recording:
            self.events.emit("tlb", "flush_pmap", cpu=self.cpu_id,
                             tag=base >> TAG_SHIFT)
        return len(stale)

    def flush_all(self) -> int:
        """Drop everything (untagged-TLB context switch, or shootdown)."""
        count = len(self._entries)
        if self.events.recording:
            for key in list(self._entries):
                self.events.emit("tlb", "drop", cpu=self.cpu_id,
                                 tag=key >> TAG_SHIFT,
                                 vpn=key & _VPN_MASK)
        self._entries.clear()
        self.stats.full_flushes += 1
        if self.events.recording:
            self.events.emit("tlb", "flush_all", cpu=self.cpu_id)
        return count

    def __len__(self) -> int:
        return len(self._entries)

    def entries_for(self, pmap) -> int:
        """Number of live entries tagged with *pmap* (for tests)."""
        base = id(pmap) << TAG_SHIFT
        return sum(1 for key in self._entries if key & ~_VPN_MASK == base)

    def snapshot(self) -> list[tuple[int, int, int, VMProt]]:
        """Decode the live entries as ``(pmap_tag, vpn, paddr, prot)``
        in FIFO age order — the public view for invariant checkers and
        the differential harness (the raw key encoding is private)."""
        return [(key >> TAG_SHIFT, key & _VPN_MASK, entry.paddr,
                 entry.prot) for key, entry in self._entries.items()]
