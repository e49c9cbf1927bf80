"""A pmap for the conformance-pass tests that forgets its table shape.

It keeps its mappings in ``self._tables`` and inherits the base class's
table walk, but declares no ``TABLE_SPAN``: the first range operation
would fail at run time, so the verifier must flag
``missing-table-span``.
"""

from repro.pmap.interface import Pmap

SPAN = 64 * 1024


class NoSpanPmap(Pmap):
    def _hw_enter(self, vaddr, paddr, prot, wired):
        table = self._tables.setdefault(vaddr // SPAN, {})
        table[vaddr // self.hw_page_size] = (paddr, prot, wired)

    def _hw_remove(self, vaddr):
        table = self._tables.get(vaddr // SPAN)
        if table is None:
            return None
        entry = table.pop(vaddr // self.hw_page_size, None)
        if not table:
            del self._tables[vaddr // SPAN]
        return entry[0] if entry else None

    def _hw_protect(self, vaddr, prot):
        table = self._tables.get(vaddr // SPAN, {})
        vpn = vaddr // self.hw_page_size
        if vpn not in table:
            return False
        table[vpn] = (table[vpn][0], prot, table[vpn][2])
        return True

    def _hw_lookup(self, vaddr):
        entry = self._tables.get(vaddr // SPAN, {}).get(
            vaddr // self.hw_page_size)
        return None if entry is None else (entry[0], entry[1])
