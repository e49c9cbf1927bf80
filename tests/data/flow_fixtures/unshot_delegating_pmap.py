"""Pmaps for the conformance-pass tests that delegate ``remove`` to
``super()`` but tell it not to shoot down.

Each ``remove`` drops the mappings through the base class and returns,
with no shootdown owed to anyone: stale TLB entries survive on other
CPUs.  One passes ``shoot=False`` by keyword, the other by position.
"""

from repro.pmap.generic import GenericPmap


class KeywordUnshotPmap(GenericPmap):
    def remove(self, start, end, shoot=True):
        return super().remove(start, end, shoot=False)


class PositionalUnshotPmap(GenericPmap):
    def remove(self, start, end, shoot=True):
        return super().remove(start, end, False)
