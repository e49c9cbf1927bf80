"""The pager interface — protocol v2 (async, batched, scatter-gather).

Section 3.3: "An important feature of Mach's virtual memory is the
ability to handle page faults and page-out requests outside of the
kernel.  This is accomplished by associating with each memory object a
managing task (called a pager)."

Two layers live here:

* :class:`PagerProtocol` — the *kernel-internal* calling convention: the
  fault handler and paging daemon speak to every pager (internal or
  external) through these few methods.  Internal pagers (default pager,
  vnode pager) implement them directly; external user-state pagers are
  reached through :class:`~repro.pager.base.ExternalPagerAdapter`, which
  turns each call into real messages on the object's ports.

* The message identifiers of the external protocol — the exact calls of
  Table 3-1 (kernel -> pager) and Table 3-2 (pager -> kernel), extended
  with the v2 fields (``request_id``, ``readahead_hint``, coalesced
  ``ranges``).

Protocol v2 changes the calling convention in three ways:

1. **Multi-page requests.**  ``data_request`` takes a byte *length*
   (any multiple of the page size) plus an advisory ``readahead_hint``
   of further bytes the kernel would accept beyond the window.  Pagers
   that declared the ``readahead`` capability may serve any subset of
   ``[offset, offset + length + readahead_hint)``.

2. **Scatter-gather replies.**  A reply may be — in order of
   increasing sophistication — a flat ``bytes`` covering the window
   (the v1 shape, zero-padded to the window), :data:`UNAVAILABLE` /
   ``None`` (no data, fall through to zero fill), or a list of
   ``(offset, data)`` ranges.  Ranges may be partial, out of order,
   overlapping (first range wins) and coalesced; a range's ``data``
   may itself be :data:`UNAVAILABLE` to punch a one-page hole.
   :func:`normalize_reply` flattens any legal shape into per-page
   chunks.

3. **Capabilities instead of ``getattr`` probing.**  Optional hooks
   (``has_data``, ``lock_value_for``, ...) are declared up front in a
   :class:`PagerCapabilities` record; :func:`capabilities_for` is the
   single place that still derives one by probing, for ad-hoc test
   pagers that never declared theirs.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union


class _Unavailable:
    """Singleton returned by ``data_request`` when the pager holds no
    data for the requested region (``pager_data_unavailable``)."""

    _instance: Optional["_Unavailable"] = None

    def __new__(cls) -> "_Unavailable":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNAVAILABLE"


UNAVAILABLE = _Unavailable()

#: One contiguous chunk of a reply: data (or a one-page hole) at a
#: byte offset into the object.
DataResult = Union[bytes, _Unavailable]

#: One scatter-gather range: ``(offset, data)``.
DataRange = Tuple[int, DataResult]

#: What a v2 ``data_request`` may return: a flat window (v1 shape),
#: "no data", or a scatter-gather list of ranges.
PagerReply = Union[DataResult, None, Sequence[DataRange]]


class KernelToPager(enum.Enum):
    """Table 3-1: Calls made by Mach kernel to a task providing external
    paging service for a memory object.

    v2 field extensions (carried in the message body, ids unchanged):

    * ``PAGER_DATA_REQUEST`` — ``object_id``, ``request_id`` (nonzero,
      unique per in-flight request; replies echo it), ``offset``,
      ``length`` (bytes, may span pages), ``desired_access``, and
      ``readahead_hint`` (advisory extra bytes past the window the
      kernel would accept — 0 under the v1 shim).
    """

    PAGER_INIT = "pager_init"
    PAGER_CREATE = "pager_create"
    PAGER_DATA_REQUEST = "pager_data_request"
    PAGER_DATA_UNLOCK = "pager_data_unlock"
    PAGER_DATA_WRITE = "pager_data_write"


class PagerToKernel(enum.Enum):
    """Table 3-2: Calls made by a task on the kernel to allocate and
    manage a memory object.

    v2 field extensions:

    * ``DATA_PROVIDED`` — ``request_id`` (echo of the request served,
      or 0 for unsolicited prefetch pushes), and either the v1
      ``offset``/``data`` pair or a coalesced ``ranges`` list of
      ``(offset, data)`` tuples.  Partial, out-of-order and duplicate
      replies are all legal; the adapter drains duplicates and drops
      replies to retired request ids.
    * ``DATA_UNAVAILABLE`` — also echoes ``request_id``.
    """

    DATA_PROVIDED = "pager_data_provided"
    DATA_UNAVAILABLE = "pager_data_unavailable"
    DATA_LOCK = "pager_data_lock"
    CLEAN_REQUEST = "pager_clean_request"
    FLUSH_REQUEST = "pager_flush_request"
    READONLY = "pager_readonly"
    CACHE = "pager_cache"


#: Hook names a capability record can declare (the conformance pass
#: holds each declared one honest).
CAPABILITY_HOOKS = ("has_data", "has_slot", "move_slots",
                    "release_object", "lock_value_for", "data_unlock",
                    "pager_init")


@dataclass(frozen=True)
class PagerCapabilities:
    """What optional parts of the protocol a pager implements.

    Replaces the historical ``getattr`` probing: the kernel consults
    the flags (via :func:`capabilities_for`) instead of sniffing for
    attributes at every call site.  A flag may only be True when the
    correspondingly named method exists — the conformance pass
    enforces that honesty for registered pager classes.
    """

    #: ``has_data(obj, offset) -> bool`` — cheap residency test;
    #: pagers without it are assumed to potentially hold data anywhere.
    has_data: bool = False
    #: ``has_slot(obj, offset) -> bool`` — like has_data, used by the
    #: shadow-collapse code (only meaningful for internal pagers).
    has_slot: bool = False
    #: ``move_slots(src_obj, dst_obj, delta)`` — migrate paged-out data
    #: during shadow collapse (default pager only).
    move_slots: bool = False
    #: ``release_object(obj)`` — the object was terminated; drop state.
    #: Must be idempotent (teardown paths may double-release).
    release_object: bool = False
    #: ``lock_value_for(offset) -> VMProt`` — per-page lock values the
    #: fault handler must honor when installing pages.
    lock_value_for: bool = False
    #: ``data_unlock`` does real work (the base class's default is a
    #: no-op, which also satisfies the kernel when the flag is set).
    data_unlock: bool = False
    #: ``pager_init(obj)`` wants to be called when an object binds.
    pager_init: bool = False
    #: v2: ``data_request`` understands ``readahead_hint`` and may
    #: return scatter-gather ranges past the requested window.
    readahead: bool = False
    #: v2: replies may arrive partial / out of order / duplicated
    #: (the external-pager adapter; internal pagers answer in line).
    async_replies: bool = False
    #: Preferred request granularity in bytes (0 = one page).  The
    #: kernel rounds fault windows up to this (vnode pager: the file
    #: system block size).
    transfer_size: int = 0

    @classmethod
    def probe(cls, pager) -> "PagerCapabilities":
        """Derive capabilities for a pager that never declared any —
        the one remaining ``getattr`` probe, centralized.  Ad-hoc test
        pagers (plain classes, pre-v2 signatures) get exactly the
        behavior the old per-call-site probing gave them: a hook is
        "supported" iff the attribute exists."""
        flags = {hook: callable(getattr(pager, hook, None))
                 for hook in CAPABILITY_HOOKS}
        transfer = getattr(pager, "transfer_size", 0)
        return cls(transfer_size=int(transfer or 0), **flags)


def capabilities_for(pager) -> PagerCapabilities:
    """The pager's declared :class:`PagerCapabilities`, or a probed
    one for duck-typed pagers that never declared theirs."""
    caps = getattr(pager, "capabilities", None)
    if isinstance(caps, PagerCapabilities):
        return caps
    return PagerCapabilities.probe(pager)


def _garbage(what: str, value) -> Exception:
    # Imported lazily: protocol.py stays importable without core loaded.
    from repro.core.errors import PagerGarbageError
    return PagerGarbageError(
        f"pager returned {type(value).__name__} instead of bytes "
        f"for {what}")


def normalize_reply(reply: PagerReply, offset: int, length: int,
                    page_size: int) -> Dict[int, DataResult]:
    """Flatten any legal v2 reply into ``{page_offset: chunk}``.

    *offset*/*length* describe the requested window; ranges outside it
    (readahead) are kept.  A flat ``bytes`` reply covers the window
    zero-padded (the v1 contract); ``None`` / :data:`UNAVAILABLE`
    yields an empty mapping (fall through to zero fill); a sequence of
    ``(offset, data)`` ranges may be partial, out of order and
    overlapping — the first range to cover a page wins.  Chunks are
    split per page; sub-page tails stay short (callers zero-pad).
    Non-bytes data raises ``PagerGarbageError`` (fatal taxonomy).
    """
    if reply is None or reply is UNAVAILABLE:
        return {}
    if isinstance(reply, (bytes, bytearray, memoryview)):
        # v1 shape: one blob for the whole window, zero-padded.
        reply = [(offset, bytes(reply)[:length].ljust(length, b"\0"))]
    elif not isinstance(reply, (list, tuple)):
        raise _garbage(f"offset {offset:#x}", reply)
    pages: Dict[int, DataResult] = {}
    for item in reply:
        if (not isinstance(item, (list, tuple))) or len(item) != 2:
            raise _garbage("a scatter-gather range", item)
        start, data = item
        if data is UNAVAILABLE:
            # A one-page hole ("pager_data_unavailable" for the page).
            base = start - start % page_size
            pages.setdefault(base, UNAVAILABLE)
            continue
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise _garbage(f"offset {start:#x}", data)
        data = bytes(data)
        if not data:
            continue
        base = start - start % page_size
        if base != start:
            # Misaligned range: left-pad to its page boundary.
            data = b"\0" * (start - base) + data
        for chunk_base in range(base, base + len(data), page_size):
            chunk = data[chunk_base - base:chunk_base - base + page_size]
            pages.setdefault(chunk_base, chunk)
    return pages


class PagerProtocol(abc.ABC):
    """Kernel-side view of any pager (protocol v2).

    Optional hooks are declared in :attr:`capabilities` (see
    :class:`PagerCapabilities`) rather than probed with ``getattr``;
    subclasses override the class attribute (or set an instance one
    when a flag depends on construction, like the vnode pager's
    ``transfer_size``).

    Failure contract (Section 4's "errant memory manager" defense):
    ``data_request``/``data_write`` may raise the typed errors of
    :mod:`repro.core.errors` —

    * ``PagerStallError`` / ``DiskIOError`` — transient; the kernel
      retries with exponential backoff on the simulated clock (and,
      when a cooperative scheduler is attached, runs other ready
      threads for the duration of the backoff — the parked fault
      resumes when the backoff expires);
    * ``PagerCrashedError`` / ``PagerGarbageError`` /
      ``PagerTimeoutError`` — fatal; the kernel declares the pager dead
      and the faulting task gets a typed error (or a degraded zero-fill
      page), never a hang.

    Raising anything else is a bug in the pager, not a failure mode the
    kernel absorbs — unknown exceptions propagate unchanged so the test
    suite can see them.
    """

    #: Declared optional-hook support; see :class:`PagerCapabilities`.
    capabilities: PagerCapabilities = PagerCapabilities()

    #: Pagers managing read-only objects set this; the fault handler
    #: forces a shadow (copy-on-write) instead of writing through.
    readonly: bool = False

    @abc.abstractmethod
    def data_request(self, obj, offset: int, length: int,
                     desired_access, readahead_hint: int = 0
                     ) -> PagerReply:
        """Return data for ``[offset, offset + length)``.

        Any shape :func:`normalize_reply` accepts is legal.  Pagers
        whose capabilities declare ``readahead`` may additionally
        serve up to *readahead_hint* bytes past the window; the kernel
        only passes a nonzero hint to such pagers, so implementations
        without the capability keep the 4-argument v1 signature.
        """

    @abc.abstractmethod
    def data_write(self, obj, offset: int, data: bytes) -> None:
        """Accept pageout data (``pager_data_write``)."""

    def data_unlock(self, obj, offset: int, length: int,
                    desired_access) -> None:
        """Request an unlock of a locked region (default: no locking)."""

    def name(self) -> str:
        """Human-readable pager identity."""
        return type(self).__name__
