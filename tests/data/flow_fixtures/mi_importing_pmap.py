"""An out-of-tree pmap for the conformance-pass tests that reaches
around its interface.

Its class conforms in every method, but its module imports
machine-independent state: an IPC module (a layer above the pmaps) and
a memory-object module (MI state beyond the shared vocabulary).  The
``layering`` lint never reads a module outside the ``repro`` tree, so
the conformance pass must report each of the two lines once.
"""

from repro.pmap.generic import GenericPmap
from repro.ipc import port  # noqa: F401
from repro.core import vm_object  # noqa: F401


class MiImportingPmap(GenericPmap):
    def forget(self, vaddr):
        return super().forget(vaddr)
