"""The kernel's error taxonomy: what a task can be told went wrong.

Every error a kernel call raises to a task derives from
:class:`VMError`, so a caller that wants to survive any VM failure has
one class to catch.  The subclasses say which check failed, which is
what a test or a task's fault handler needs to tell apart.

The real taxonomy also splits pager failures into transient ones, which
the kernel retries with backoff, and fatal ones, which declare the
pager dead; the error-path pass checks that every transient operation
is retried.  This miniature has no external pager, so it has neither,
and no call here can raise anything but the classes below and the
built-in ``ValueError`` and ``KeyError`` for bad arguments.
"""


class VMError(Exception):
    """Base of every error the kernel reports to a task."""


class InvalidAddressError(VMError):
    """The address lies in no mapped region of the task's map: the
    task touched memory it never allocated, or already gave back."""


class ProtectionError(VMError):
    """The access asks for more than the region's protection allows,
    such as a write to a region mapped read-only."""


class ResourceShortageError(VMError):
    """No free physical frame or swap slot is left.  The kernel would
    run the pageout daemon and retry; this miniature just says so."""
