"""Pagers: backing-store managers for memory objects.

Internal pagers (default/swap, vnode) implement
:class:`~repro.pager.protocol.PagerProtocol` directly; external
user-state pagers run behind
:class:`~repro.pager.base.ExternalPagerAdapter`, which speaks the real
Table 3-1 / Table 3-2 message protocol over ports.

Protocol v2 (this package's calling convention): ``data_request``
carries a window *length* plus an advisory ``readahead_hint``, replies
may be scatter-gather range lists (partial, out-of-order, coalesced),
and optional hooks are declared up front in a
:class:`~repro.pager.protocol.PagerCapabilities` flags object instead
of being probed with ``getattr``.  The v1 one-page convention survives
only in the pinned difftest reference under ``tests/difftest/``.
"""

from repro.pager.base import (
    ExternalPager,
    ExternalPagerAdapter,
    KernelRequestInterface,
    SimpleReadWritePager,
)
from repro.pager.default_pager import DefaultPager
from repro.pager.netmemory import (
    NetMemoryPager,
    NetMemoryServer,
    map_remote_region,
)
from repro.pager.protocol import (
    UNAVAILABLE,
    KernelToPager,
    PagerCapabilities,
    PagerProtocol,
    PagerToKernel,
    capabilities_for,
    normalize_reply,
)
from repro.pager.registry import (
    pager_class_for,
    register_pager,
    registered_pagers,
)
from repro.pager.swap import FileBackedSwap, SwapSpace
from repro.pager.vnode_pager import VnodePager, map_file, vnode_pager_for

__all__ = [
    "DefaultPager", "ExternalPager", "ExternalPagerAdapter",
    "FileBackedSwap", "KernelRequestInterface", "KernelToPager",
    "NetMemoryPager", "NetMemoryServer", "PagerCapabilities",
    "PagerProtocol", "PagerToKernel", "SimpleReadWritePager",
    "SwapSpace", "UNAVAILABLE", "VnodePager", "capabilities_for",
    "map_file", "map_remote_region", "normalize_reply",
    "pager_class_for", "register_pager", "registered_pagers",
    "vnode_pager_for",
]
