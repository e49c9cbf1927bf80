"""Kernel return codes and exception types.

Mach kernel calls return ``kern_return_t`` codes rather than raising; the
Python reproduction keeps both idioms available: internal layers raise
typed exceptions, and the public task-level operations translate them to
:class:`KernReturn` codes where a caller asks for Mach-style results.
"""

from __future__ import annotations

import enum


class KernReturn(enum.Enum):
    """Mach ``kern_return_t`` codes used by the VM interface."""

    SUCCESS = 0
    INVALID_ADDRESS = 1
    PROTECTION_FAILURE = 2
    NO_SPACE = 3
    INVALID_ARGUMENT = 4
    FAILURE = 5
    RESOURCE_SHORTAGE = 6
    MEMORY_FAILURE = 7
    MEMORY_ERROR = 8
    ABORTED = 14


class VMError(Exception):
    """Base class for all machine-independent VM errors."""

    #: The ``kern_return_t`` this error maps to at the task interface.
    kern_return = KernReturn.FAILURE


class InvalidAddressError(VMError):
    """An address or range is outside the map or not mapped."""

    kern_return = KernReturn.INVALID_ADDRESS


class ProtectionFailureError(VMError):
    """An access or protection change violates the current/maximum
    protection of an entry."""

    kern_return = KernReturn.PROTECTION_FAILURE


class NoSpaceError(VMError):
    """No hole large enough exists in the address map."""

    kern_return = KernReturn.NO_SPACE


class InvalidArgumentError(VMError):
    """A malformed argument (alignment, negative size, bad enum)."""

    kern_return = KernReturn.INVALID_ARGUMENT


class ResourceShortageError(VMError):
    """Physical memory (or swap) is exhausted and cannot be reclaimed."""

    kern_return = KernReturn.RESOURCE_SHORTAGE


class MemoryObjectError(VMError):
    """A pager failed to provide or accept data for a memory object."""

    kern_return = KernReturn.MEMORY_ERROR


class DiskIOError(VMError):
    """A simulated disk transfer failed.

    Raised by :class:`repro.fs.disk.SimDisk` (usually under fault
    injection) and propagated — never swallowed — through the
    filesystem, the vnode pager and the fault handler, so a bad block
    surfaces as a typed error rather than silent corruption.
    """

    kern_return = KernReturn.MEMORY_FAILURE


class IPCTimeoutError(VMError):
    """A message round trip produced no reply within the retry budget
    (the request, the reply, or both were lost in transit)."""

    kern_return = KernReturn.ABORTED


class PagerError(MemoryObjectError):
    """Base class for pager failure modes.

    Section 4 of the paper warns that the external-pager design makes
    the kernel depend "on user-state code it cannot trust"; these
    exceptions are the kernel's defense: every way a pager can go wrong
    maps to a typed error the faulting task receives instead of a hang.
    """


class PagerStallError(PagerError):
    """A pager did not respond in time (transient).

    The kernel retries stalled requests with exponential backoff on the
    simulated clock; only after the retry budget is exhausted does the
    stall escalate to :class:`PagerTimeoutError`.
    """


class PagerTimeoutError(PagerError):
    """A pager stayed unresponsive through every timed retry; the
    kernel declares it dead."""


class PagerCrashedError(PagerError):
    """A pager task died (dead ports, vanished server) mid-protocol."""


class PagerGarbageError(PagerError):
    """A pager answered with malformed data (wrong type); the kernel
    refuses to install it."""


class PagerDeadError(PagerError):
    """The object's pager was previously declared dead; the fault
    fails immediately (no retries) unless the object has been adopted
    by the default pager or the kernel degrades to zero fill."""


class PageFault(Exception):
    """Raised by the simulated MMU when a translation is missing or the
    attempted access exceeds the installed permissions.

    This is the hardware trap of the simulation: the kernel catches it
    and routes it into the machine-independent fault handler
    (:mod:`repro.core.fault`), exactly as a real trap handler would.

    Attributes:
        vaddr: faulting virtual address.
        fault_type: the access the processor attempted.
        pmap: the physical map active when the fault was taken.
        cpu_id: identifier of the faulting CPU, if known.
    """

    def __init__(self, vaddr, fault_type, pmap=None, cpu_id=None):
        # The kernel catches nearly every trap, so the message is built
        # only when someone asks for it (``__str__``).
        super().__init__(vaddr, fault_type)
        self.vaddr = vaddr
        self.fault_type = fault_type
        self.pmap = pmap
        self.cpu_id = cpu_id

    def __str__(self) -> str:
        return f"page fault at {self.vaddr:#x} ({self.fault_type!r})"
